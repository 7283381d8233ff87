"""Compare the 30 figure CSVs of two checkouts, byte for byte or within tolerance.

    python3 scripts/figure_digests.py > digests.txt
    python3 scripts/figure_digests.py --against ../other-checkout

Runs ``magnomech figure <preset> --format csv --jobs 1`` in-process for each
of the 15 presets under both gain-noise conventions (30 CSVs). The library is
imported from the ``src/`` of the checkout that holds this script.

Without ``--against``, prints one ``<sha256>  <preset>-<convention>.csv`` line
each, so running it in two checkouts and diffing the output tells whether any
figure byte moved.

With ``--against <checkout>``, runs that checkout's CLI in a subprocess for
the same 30 CSVs and prints, per CSV, how many cells moved and their largest
absolute and relative deviation, then every cell that fails. A cell fails
when it changes kind (empty or not, an error code, ``stable``, ``pt_phase``
or any other column compared exactly) or when a numeric cell leaves the
tolerances of ``perfbench/checks.py``. Exits 1 if any cell fails.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import hashlib
import io
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "perfbench"))

from checks import _cell_atol, close  # noqa: E402
from magnomech.cli import main  # noqa: E402
from magnomech.dynamics import GAIN_NOISE_MODES  # noqa: E402
from magnomech.sweep import FIGURE_NAMES  # noqa: E402


def figure_args(name: str, gain_noise: str) -> list[str]:
    return ["figure", name, "--format", "csv", "--jobs", "1",
            "--gain-noise", gain_noise]


def figure_csv(name: str, gain_noise: str) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        status = main(figure_args(name, gain_noise))
    if status != 0:
        raise SystemExit(f"figure {name} --gain-noise {gain_noise} exited {status}")
    return out.getvalue()


def other_figure_csv(checkout: Path, name: str, gain_noise: str) -> str:
    env = dict(os.environ, PYTHONPATH=str(checkout / "src"))
    done = subprocess.run([sys.executable, "-m", "magnomech",
                           *figure_args(name, gain_noise)],
                          cwd=checkout, env=env, capture_output=True, text=True)
    if done.returncode != 0:
        raise SystemExit(f"{checkout}: figure {name} --gain-noise {gain_noise} "
                         f"exited {done.returncode}\n{done.stderr}")
    return done.stdout


def compare(text: str, ref_text: str) -> tuple[int, float, float, list[str]]:
    """(moved cells, max absolute and relative deviation, failing cells) of a
    CSV against the CSV ``ref_text``. The relative deviation skips cells that
    were zero."""
    rows = list(csv.reader(io.StringIO(text)))
    ref_rows = list(csv.reader(io.StringIO(ref_text)))
    header = ref_rows[0]
    if len(rows) != len(ref_rows) or rows[0] != header:
        return 0, 0.0, 0.0, ["header or row count differs"]
    atols = [_cell_atol(column) for column in header]
    moved, max_abs, max_rel, failing = 0, 0.0, 0.0, []
    for i, (row, ref) in enumerate(zip(rows[1:], ref_rows[1:]), start=1):
        if len(row) != len(ref):
            failing.append(f"row {i}: {len(ref)} -> {len(row)} cells")
            continue
        for column, atol, new, old in zip(header, atols, row, ref):
            if new == old:
                continue
            where = f"row {i} {column}: {old!r} -> {new!r}"
            if atol is None or "" in (new, old):
                failing.append(where)
                continue
            moved += 1
            deviation = abs(float(new) - float(old))
            max_abs = max(max_abs, deviation)
            if float(old):
                max_rel = max(max_rel, deviation / abs(float(old)))
            if not close(float(new), float(old), atol):
                failing.append(where)
    return moved, max_abs, max_rel, failing


def against(checkout: Path) -> int:
    total, worst = 0, 0.0
    status = 0
    for name in FIGURE_NAMES:
        for gain_noise in GAIN_NOISE_MODES:
            moved, max_abs, max_rel, failing = compare(
                figure_csv(name, gain_noise),
                other_figure_csv(checkout, name, gain_noise))
            total, worst = total + moved, max(worst, max_abs)
            print(f"{name}-{gain_noise}.csv  moved {moved}  "
                  f"max abs {max_abs:.3g}  max rel {max_rel:.3g}  "
                  f"failing {len(failing)}")
            for where in failing:
                print(f"    FAIL {where}")
            status = status or int(bool(failing))
    print(f"total moved {total}  max abs {worst:.3g}  "
          f"{'FAIL' if status else 'PASS'}")
    return status


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--against", type=Path, metavar="CHECKOUT",
                        help="compare with the CLI of another checkout")
    args = parser.parse_args()
    if args.against is not None:
        sys.exit(against(args.against.resolve()))
    for name in FIGURE_NAMES:
        for gain_noise in GAIN_NOISE_MODES:
            digest = hashlib.sha256(figure_csv(name, gain_noise).encode()).hexdigest()
            print(f"{digest}  {name}-{gain_noise}.csv")
