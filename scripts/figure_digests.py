"""Digest this checkout's 30 figure CSVs, or compare its CLI with another's.

    python3 scripts/figure_digests.py > digests.txt
    python3 scripts/figure_digests.py --against ../other-checkout

Each output is that of ``python -m magnomech <args>`` with a checkout's
``src/`` on ``PYTHONPATH``. The 30 figure CSVs are ``figure <preset> --format
csv --jobs 1`` for the 15 presets under both gain-noise conventions.

Without ``--against``, prints one ``<sha256>  <preset>-<convention>.csv`` line
each: diff the output of two checkouts to see whether a figure byte moved.

With ``--against <checkout>``, prints per figure CSV how many cells moved,
their largest absolute and relative deviation and every failing cell: one
that changes kind (empty or not, an error code, ``stable``, ``pt_phase`` or
any other column compared exactly) or leaves the tolerances of
``perfbench/checks.py``. Then it compares the ``figure <preset> --format
json --jobs 1`` output of the ``JSON_FIGURES`` byte for byte, naming the
first byte that differs. Last it runs the 80 single-point commands (each of
``COMMANDS`` at each of ``POINTS``, in json and csv) and the 14 ``vanish-temp``
``SEARCHES`` in both checkouts and names, with a diff, each whose merged
stdout and stderr or exit code differ by a byte. Exits 1 if a cell fails, a
figure's JSON differs or a command differs.
"""

from __future__ import annotations

import argparse
import csv
import difflib
import hashlib
import io
import os
import shlex
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "perfbench"))

from checks import _cell_atol, close  # noqa: E402
from magnomech.dynamics import GAIN_NOISE_MODES  # noqa: E402
from magnomech.sweep import FIGURE_NAMES  # noqa: E402

#: Figures whose JSON, which keeps every bit where the CSV rounds to 12
#: digits, must not move by a byte: a stability map of 10 batches, and a
#: gain-and-loss preset with a drift per point and with one shared drift.
JSON_FIGURES = ("fig2a", "fig5", "fig6b")

#: The single-point commands, each run at every point in json and csv.
COMMANDS = ("classify", "steady-state", "drift", "stability", "measures")

#: The ``--set`` overrides of each single-point command's point.
POINTS = (
    (),  # the bundled point
    ("g_mb=0hz",),
    ("G_eff=0.3omega_b", "g_mb=3hz"),  # a preset point with a tiny g_mb
    # Drive-mode points: self-consistent, at a given delta_m_eff, and one
    # whose working point fails.
    ("epsilon_d=9.2e13rad_s", "delta_m=-0.95omega_b"),
    ("epsilon_d=9.2e13rad_s", "delta_m_eff=-0.95omega_b"),
    ("epsilon_d=8e13rad_s", "delta_m=-0.95omega_b", "g_ma=0", "kappa_a=0",
     "delta_a=0"),
    ("G_eff=0.2omega_b", "delta_m=-1omega_b"),  # no effective detuning
    ("kappa_a=0.02omega_b",),  # a gain cavity
)


def _sets(*settings: str) -> list[str]:
    return [arg for setting in settings for arg in ("--set", setting)]


_LOSS = _sets("G_eff=0.25omega_b", "kappa_a=-0.02omega_b")
_UNSTABLE = _sets("g_ma=0.06omega_b", "G_eff=0.25omega_b")
_FAILING = _sets("epsilon_d=8e13rad_s", "delta_m=-0.95omega_b", "g_ma=0",
                 "kappa_a=0", "delta_a=0")  # its drift fails

#: The arguments of each ``vanish-temp`` search. A search that fails prints
#: its error and exit code, which are compared too.
SEARCHES = (
    # Acceptance criterion 8's two searches, under both conventions.
    *([*_sets("G_eff=0.25omega_b", f"kappa_a={kappa_a}omega_b"),
       "--t-hi", "350 mk", "--gain-noise", noise]
      for noise in GAIN_NOISE_MODES for kappa_a in ("0.02", "-0.02")),
    [*_LOSS, "--t-lo", "1.1 mk", "--t-hi", "200 mk",
     "--gain-noise", "vacuum"],  # a bracket above 0 K
    [*_sets("epsilon_d=8e13rad_s", "delta_m=-0.95omega_b"),
     "--t-hi", "350 mk", "--gain-noise", "reversed"],  # drive mode
    [*_LOSS, "--t-lo", "200 mk", "--t-hi", "300 mk"],  # an invalid bracket
    # An unstable bracket and a failing drift, also at a negative or an
    # overflowing end, and the loss point on brackets whose ends overflow.
    _UNSTABLE,
    [*_UNSTABLE, "--t-hi", "1e308 k"],
    _FAILING,
    [*_FAILING, "--t-lo", "-1 k"],
    [*_FAILING, "--t-hi", "1e308 k"],
    [*_LOSS, "--t-hi", "1e300 k"],
    [*_LOSS, "--t-lo", "1e307 k", "--t-hi", "1.7e308 k"],
)


def run(checkout: Path, args: list[str]) -> tuple[int, str]:
    """Exit code and merged stdout and stderr of ``python -m magnomech
    <args>`` on the ``src/`` of ``checkout``."""
    env = dict(os.environ, PYTHONPATH=str(checkout / "src"))
    done = subprocess.run([sys.executable, "-m", "magnomech", *args],
                          cwd=checkout, env=env, stdout=subprocess.PIPE,
                          stderr=subprocess.STDOUT, text=True)
    return done.returncode, done.stdout


def figure(checkout: Path, name: str, gain_noise: str = "vacuum",
           fmt: str = "csv") -> str:
    args = ["figure", name, "--format", fmt, "--jobs", "1",
            "--gain-noise", gain_noise]
    status, output = run(checkout, args)
    if status != 0:
        raise SystemExit(f"{checkout}: {shlex.join(args)} exited {status}\n"
                         f"{output}")
    return output


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
    total, worst, failed = 0, 0.0, 0
    for name in FIGURE_NAMES:
        for gain_noise in GAIN_NOISE_MODES:
            moved, max_abs, max_rel, failing = compare(
                figure(ROOT, name, gain_noise), figure(checkout, name, gain_noise))
            total, worst = total + moved, max(worst, max_abs)
            failed += bool(failing)
            print(f"{name}-{gain_noise}.csv  moved {moved}  "
                  f"max abs {max_abs:.3g}  max rel {max_rel:.3g}  "
                  f"failing {len(failing)}")
            for where in failing:
                print(f"    FAIL {where}")
    json_differ = 0
    for name in JSON_FIGURES:
        this, other = (figure(root, name, fmt="json") for root in (ROOT, checkout))
        if this != other:
            json_differ += 1
            at = next((i for i, (a, b) in enumerate(zip(this, other)) if a != b),
                      min(len(this), len(other)))
            print(f"DIFF {name}.json at byte {at}: {other[at:at + 60]!r} -> "
                  f"{this[at:at + 60]!r}")
        else:
            print(f"{name}.json  identical  {len(this)} bytes")
    commands = [[command, *_sets(*point), "--format", fmt] for point in POINTS
                for command in COMMANDS for fmt in ("json", "csv")]
    commands += [["vanish-temp", *search] for search in SEARCHES]
    differ = 0
    for args in commands:
        other, this = run(checkout, args), run(ROOT, args)
        if this != other:
            differ += 1
            print(f"DIFF magnomech {shlex.join(args)}")
            print("\n".join(difflib.unified_diff(
                *(f"{output}exit {status}\n".splitlines()
                  for status, output in (other, this)),
                "other", "this", lineterm="")))
    figures = len(FIGURE_NAMES) * len(GAIN_NOISE_MODES)
    bad = failed or json_differ or differ
    print(f"total moved {total}  max abs {worst:.3g}  failing CSVs {failed} "
          f"of {figures}  differing JSON figures {json_differ} of "
          f"{len(JSON_FIGURES)}  differing commands {differ} of {len(commands)}  "
          f"{'FAIL' if bad else 'PASS'}")
    return int(bool(bad))


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--against", type=Path, metavar="CHECKOUT",
                        help="compare with the CLI of another checkout")
    args = parser.parse_args()
    if args.against is not None:
        sys.exit(against(args.against.resolve()))
    for name in FIGURE_NAMES:
        for gain_noise in GAIN_NOISE_MODES:
            digest = hashlib.sha256(
                figure(ROOT, name, gain_noise).encode()).hexdigest()
            print(f"{digest}  {name}-{gain_noise}.csv")
