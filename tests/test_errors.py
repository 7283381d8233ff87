"""Split LAPACK stacks: the same bits and the same failures as one call."""

import os
import sys
import threading
import warnings

import numpy as np
import pytest

from magnomech import errors
from magnomech.errors import (MIN_CHUNK, EigenSolveError, SingularSolveError,
                              lapack_stack, no_failures, split_stack)
from magnomech.measures import _I_OMEGA_2

#: Chunk sizes, on four usable cores, of a stack one short of two chunks,
#: one of exactly two, and one that makes four chunks of unequal sizes.
CHUNKS = {2 * MIN_CHUNK - 1: [2 * MIN_CHUNK - 1],
          2 * MIN_CHUNK: [MIN_CHUNK] * 2,
          4 * MIN_CHUNK + 3: [MIN_CHUNK] + [MIN_CHUNK + 1] * 3}


@pytest.fixture
def four_cores(monkeypatch):
    """Split as on four usable cores, on any machine."""
    monkeypatch.setattr(errors, "_usable_cores", lambda: 4)


def _kernels(n: int) -> dict:
    """Each kernel that goes through split_stack, with stacks of n inputs."""
    rng = np.random.default_rng(n)
    return {
        "drift eigenvalues": (np.linalg.eigvals, rng.standard_normal((n, 6, 6))),
        "PPT spectrum": (np.linalg.eigvals,
                         _I_OMEGA_2 @ rng.standard_normal((n, 4, 4))),
        "Lyapunov solve": (np.linalg.solve, rng.standard_normal((n, 36, 36)),
                           rng.standard_normal((n, 36, 1))),
    }


def _assert_same(split, whole):
    assert split.dtype == whole.dtype
    assert np.array_equal(split, whole)


@pytest.mark.skipif(not hasattr(os, "sched_getaffinity"),
                    reason="no affinity masks on this OS")
def test_usable_cores_follow_the_affinity_mask():
    assert errors._usable_cores() == len(os.sched_getaffinity(0))


@pytest.mark.parametrize("n", CHUNKS)
def test_split_gives_the_bits_of_one_call(four_cores, n):
    for func, *stacks in _kernels(n).values():
        sizes = []

        def recorded(*chunk, func=func):
            sizes.append(len(chunk[0]))
            return func(*chunk)

        _assert_same(split_stack(recorded, *stacks), func(*stacks))
        assert sorted(sizes) == CHUNKS[n]


@pytest.mark.parametrize("complex_first", [False, True])
def test_real_and_complex_chunks_join_as_one_call(four_cores, complex_first):
    # Symmetric drifts have real spectra, so LAPACK returns that chunk's
    # eigenvalues as float64, the other chunk's as complex128.
    rng = np.random.default_rng(3)
    real = rng.standard_normal((MIN_CHUNK, 6, 6))
    real = real + real.swapaxes(-1, -2)
    rotating = rng.standard_normal((MIN_CHUNK, 6, 6))
    rotating[:, 0, 1], rotating[:, 1, 0] = 5.0, -5.0
    chunks = [rotating, real] if complex_first else [real, rotating]
    assert np.linalg.eigvals(real).dtype == np.float64
    assert np.linalg.eigvals(rotating).dtype == np.complex128
    stack = np.concatenate(chunks)
    _assert_same(split_stack(np.linalg.eigvals, stack), np.linalg.eigvals(stack))
    _assert_same(split_stack(np.linalg.eigvals, np.concatenate([real, real])),
                 np.linalg.eigvals(np.concatenate([real, real])))


def _failures_of(monkeypatch, cores, func, stacks, out, error, what):
    monkeypatch.setattr(errors, "_usable_cores", lambda: cores)
    failures = no_failures(len(stacks[0]))
    result = lapack_stack(func, stacks, out.copy(), failures,
                          np.arange(len(stacks[0])), error, what)
    return result, [None if f is None else (type(f), f.args) for f in failures]


@pytest.mark.parametrize("bad", [0, MIN_CHUNK - 1, 3 * MIN_CHUNK + 2])
def test_a_failing_chunk_fails_its_points_as_one_call(monkeypatch, bad):
    n = 4 * MIN_CHUNK + 3
    rng = np.random.default_rng(5)
    drifts = rng.standard_normal((n, 6, 6))
    drifts[bad, 2, 3] = np.nan  # LAPACK rejects this chunk
    lhs, rhs = rng.standard_normal((n, 36, 36)), rng.standard_normal((n, 36, 1))
    lhs[bad] = 0.0  # singular
    cases = [(np.linalg.eigvals, (drifts,), np.zeros((n, 6), complex),
              EigenSolveError, "eigenvalue computation failed"),
             (np.linalg.solve, (lhs, rhs), np.zeros((n, 36, 1)),
              SingularSolveError, "vectorized Lyapunov solve failed")]
    for func, stacks, out, error, what in cases:
        whole, whole_failures = _failures_of(monkeypatch, 1, func, stacks, out,
                                             error, what)
        split, split_failures = _failures_of(monkeypatch, 4, func, stacks, out,
                                             error, what)
        assert split_failures == whole_failures
        assert [k for k, f in enumerate(split_failures) if f] == [bad]
        assert split_failures[bad][0] is error
        assert split_failures[bad][1][0].startswith(what + ": ")
        _assert_same(split, whole)


def test_a_failing_chunk_is_raised(four_cores):
    lhs = np.tile(np.eye(36), (2 * MIN_CHUNK, 1, 1))
    lhs[-1] = 0.0
    with pytest.raises(np.linalg.LinAlgError):
        split_stack(np.linalg.solve, lhs, np.ones((2 * MIN_CHUNK, 36, 1)))


def test_split_chunks_keep_the_callers_errstate(four_cores):
    # NumPy 2 keeps errstate in a context variable, which a pool thread
    # does not inherit: each chunk runs in a copy of the caller's context.
    sub = np.zeros((4 * MIN_CHUNK, 4, 4))
    sub[:, range(4), range(4)] = 1e100  # det V = 1e400 overflows
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with np.errstate(over="ignore"):
            dets = split_stack(np.linalg.det, sub)
    assert np.isinf(dets).all()



def test_concurrent_callers_share_one_pool(four_cores, monkeypatch):
    # More calling threads than cores, each splitting its own stack, while
    # the first splits race to make the pool.
    monkeypatch.setattr(errors, "_pool", None)
    stacks = [np.random.default_rng(seed).standard_normal((2 * MIN_CHUNK, 6, 6))
              for seed in range(8)]
    results = [None] * len(stacks)
    pools = set()

    def work(i):
        for _ in range(5):
            results[i] = split_stack(np.linalg.eigvals, stacks[i])
            pools.add(id(errors._pool))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(i,))
                   for i in range(len(stacks))]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert len(pools) == 1
    for stack, result in zip(stacks, results):
        _assert_same(result, np.linalg.eigvals(stack))
