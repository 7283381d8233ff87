"""Capture the reference outputs the benchmark checks against.

Run from the repository root, at the commit whose outputs are the reference:

    python3 perfbench/make_reference.py

It writes ``perfbench/reference/``: the CSV of every figure preset a grid
workload runs, the ``magnomech measures`` output at the bundled point, and
the query pool. The pool holds points and searches drawn with continuous
random parameters from a fixed generator seed, plus fig4b grid points (all
that fail with an error code and a random sample of the rest); a benchmark
run draws its query mix from the pool with the run's ``--seed``. Re-running this at a later
commit replaces the reference with that commit's outputs, so it is run only
when the reference is meant to move, and the change is said in CHANGES.md.
"""

from __future__ import annotations

import contextlib
import dataclasses
import gzip
import io
import json
import sys
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import magnomech as mg  # noqa: E402
from magnomech import cli  # noqa: E402

import checks  # noqa: E402
from tracing import exception_code  # noqa: E402
from workloads import ENTANGLEMENT_FIGURES, QUERY_OUTPUTS  # noqa: E402

POOL_SEED = 20200807
POOL_PRESET = 400
POOL_DRIVE = 400
POOL_VANISH = 120
#: fig4b grid points besides every one that fails with an error code.
POOL_GRID = 120
SLOW_ITERATIONS = 50
GRID_FIGURES = ("fig2a", "fig2b", "fig2c") + ENTANGLEMENT_FIGURES


def _write(name: str, text: str) -> None:
    with gzip.open(checks.REFERENCE_DIR / name, "wt", encoding="utf-8",
                   compresslevel=9) as handle:
        handle.write(text)


def _cli(argv: list[str]) -> str:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    if code != 0:
        raise SystemExit(f"magnomech {' '.join(argv)} exited {code}")
    return buf.getvalue()


def preset_point(rng):
    """A point inside one figure preset's axis ranges, on one of its series."""
    name = mg.sweep.FIGURE_NAMES[rng.integers(len(mg.sweep.FIGURE_NAMES))]
    spec = mg.figure_preset(name)
    params = spec.base
    series = spec.series[rng.integers(len(spec.series))]
    for key, value in series.overrides:
        params = checks.apply_axis(params, key, value)
    for axis in spec.axes:
        params = checks.apply_axis(params, axis.name, rng.uniform(axis.lo, axis.hi))
    return params


def drive_point(rng):
    """Self-consistent drive-mode point; half near the bistable edge."""
    base = mg.default_params()
    wb, km = base.omega_b, base.kappa_m
    if rng.random() < 0.5:
        delta_m = rng.uniform(-1.5, -0.5) * wb
        epsilon_d = 10.0 ** rng.uniform(12.5, 14.7)
    else:
        delta_m = rng.uniform(-1.05, -0.95) * wb
        epsilon_d = rng.uniform(0.6e14, 1.4e14)
    return base.replace(G_eff=None, delta_m_eff=None, delta_m=delta_m,
                        epsilon_d=epsilon_d,
                        kappa_a=rng.choice((0.2, -0.2)) * km)


def vanish_search(rng):
    """Entanglement-vanishing search on a lossy cavity with a valid bracket."""
    base = mg.default_params()
    params = base.replace(kappa_a=-rng.uniform(0.1, 0.3) * base.kappa_m,
                          G_eff=rng.uniform(0.1, 0.35) * base.omega_b)
    return params, str(rng.choice(("am", "ab"))), rng.uniform(1e-3, 5e-3), \
        rng.uniform(0.25, 0.4)


def grid_points(rng, fig4b_csv: str) -> list:
    """fig4b grid points: every one with an error code plus a random sample."""
    spec = mg.figure_preset("fig4b")
    rows = fig4b_csv.splitlines()[1:]
    failing = [i for i, row in enumerate(rows) if not row.endswith(",")]
    others = [i for i, row in enumerate(rows) if row.endswith(",")]
    sample = rng.choice(others, size=POOL_GRID, replace=False)
    return [checks.grid_params(spec, int(i)) for i in failing + sorted(sample)]


def query_pool(fig4b_csv: str) -> list[dict]:
    rng = np.random.default_rng(POOL_SEED)
    pool = []
    for params in grid_points(rng, fig4b_csv):
        expect = mg.evaluate_point(params, QUERY_OUTPUTS)
        cls = expect["error"] or ("stable" if expect["stable"] else "unstable")
        pool.append({"kind": "grid", "class": f"grid/{cls}",
                     "params": dataclasses.asdict(params), "expect": expect})
    for kind, count in (("preset", POOL_PRESET), ("drive", POOL_DRIVE)):
        for _ in range(count):
            params = preset_point(rng) if kind == "preset" else drive_point(rng)
            expect = mg.evaluate_point(params, QUERY_OUTPUTS)
            if expect["error"]:
                cls = expect["error"]
            elif kind == "drive":
                slow = mg.working_point(params).iterations >= SLOW_ITERATIONS
                cls = "slow" if slow else "fast"
            else:
                cls = "stable" if expect["stable"] else "unstable"
            pool.append({"kind": kind, "class": f"{kind}/{cls}",
                         "params": dataclasses.asdict(params), "expect": expect})
    for _ in range(POOL_VANISH):
        params, pair, t_lo, t_hi = vanish_search(rng)
        try:
            expect = {"error": "", "temperature": mg.vanishing_temperature(
                params, pair, t_lo, t_hi)}
        except mg.MagnomechError as exc:
            expect = {"error": exception_code(exc), "temperature": None}
        pool.append({"kind": "vanish",
                     "class": f"vanish/{expect['error'] or 'ok'}",
                     "params": dataclasses.asdict(params), "pair": pair,
                     "t_lo": t_lo, "t_hi": t_hi, "expect": expect})
    for i, entry in enumerate(pool):
        entry["id"] = i
    return pool


def main() -> None:
    checks.REFERENCE_DIR.mkdir(exist_ok=True)
    for fig in GRID_FIGURES:
        _write(f"{fig}.csv.gz", _cli(["figure", fig, "--format", "csv"]))
    _write("measures.json.gz", _cli(["measures"]))
    pool = query_pool(_cli(["figure", "fig4b", "--format", "csv"]))
    _write("queries.json.gz", json.dumps(pool, separators=(",", ":")))
    classes: dict[str, int] = {}
    for entry in pool:
        classes[entry["class"]] = classes.get(entry["class"], 0) + 1
    print(json.dumps(classes, sort_keys=True))


if __name__ == "__main__":
    main()
