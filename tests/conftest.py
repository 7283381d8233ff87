"""Fixtures shared by the test files."""

import pytest

from magnomech import sweep


@pytest.fixture
def cores(monkeypatch):
    """``cores(n)`` makes a sweep see n usable cores, on any machine."""
    def use(n: int) -> None:
        monkeypatch.setattr(sweep, "_usable_cores", lambda: n)
    return use
