"""Print the sha256 of every figure CSV, to compare two checkouts byte for byte.

    python3 scripts/figure_digests.py > digests.txt

Runs ``magnomech figure <preset> --format csv --jobs 1`` in-process for each
of the 15 presets under both gain-noise conventions (30 CSVs) and prints one
``<sha256>  <preset>-<convention>.csv`` line each. The library is imported
from the ``src/`` of the checkout that holds this script, so running it in
two checkouts and diffing the output compares their numbers.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from magnomech.cli import main  # noqa: E402
from magnomech.dynamics import GAIN_NOISE_MODES  # noqa: E402
from magnomech.sweep import FIGURE_NAMES  # noqa: E402


def figure_csv(name: str, gain_noise: str) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        status = main(["figure", name, "--format", "csv", "--jobs", "1",
                       "--gain-noise", gain_noise])
    if status != 0:
        raise SystemExit(f"figure {name} --gain-noise {gain_noise} exited {status}")
    return out.getvalue()


if __name__ == "__main__":
    for name in FIGURE_NAMES:
        for gain_noise in GAIN_NOISE_MODES:
            digest = hashlib.sha256(figure_csv(name, gain_noise).encode()).hexdigest()
            print(f"{digest}  {name}-{gain_noise}.csv")
