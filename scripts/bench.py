"""Run the benchmark's workloads and write one BENCH file per workload.

    python3 scripts/bench.py                          # this checkout alone
    python3 scripts/bench.py --against ../parent      # alternating pairs

Each run is ``python3 perfbench/run.py --workload W --seed S --seconds T
--trace 0`` in a checkout, unchanged, with that checkout's ``src/``. With
``--against``, each pair runs both checkouts on the same seed, one after the
other, and the side that goes first alternates from pair to pair. Run k uses
seed ``--seed`` + k.

Each workload's results go to ``BENCH_<short-sha>_<workload>.json`` at the
root of this checkout: per side, the median and interquartile range of the
five end-to-end metrics and every run's values; with ``--against``, how many
pairs each side won per metric (lower is better for all five; a tie is no
win); the pair count, the seeds and seconds; nproc, the BLAS build and its
thread settings from ``run.py``'s report line; each side's git SHA, ``src/``
digest and whether every run was correct. Exits 1 if a run fails or is not
correct.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [workload["name"] for workload in BENCHMARK["workloads"]]
METRICS = [metric["name"] for metric in BENCHMARK["end_to_end"]]


def git_sha(checkout: Path) -> str | None:
    done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=checkout,
                          capture_output=True, text=True)
    return done.stdout.strip() or None


def run_once(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    """The report and the result line of one ``perfbench/run.py`` run."""
    argv = [sys.executable, "perfbench/run.py", "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(argv, cwd=checkout, capture_output=True, text=True)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or len(lines) < 2:
        raise SystemExit(f"{checkout}: {' '.join(argv[1:])} exited "
                         f"{done.returncode}\n{done.stderr[-2000:]}")
    report, result = json.loads(lines[-2]), json.loads(lines[-1])
    return {"report": report, "result": result}


def summary(runs: list[dict]) -> dict:
    """Median, interquartile range and values of each end-to-end metric."""
    out = {}
    for name in METRICS:
        values = [run["result"]["metrics"][name]["value"] for run in runs]
        q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
        out[name] = {"unit": runs[0]["result"]["metrics"][name]["unit"],
                     "median": statistics.median(values), "iqr": q3 - q1,
                     "values": values}
    return out


def side(checkout: Path, runs: list[dict]) -> dict:
    env = runs[0]["report"]["environment"]
    return {"checkout": str(checkout), "git_sha": git_sha(checkout),
            "src_sha256": env["src_sha256"],
            "correct": all(run["result"]["correct"] for run in runs),
            "failed_checks": sum(run["result"]["failed"] for run in runs),
            "failed_fraction": [run["report"]["failed_fraction"] for run in runs],
            "metrics": summary(runs)}


def bench(workload: str, against: Path | None, pairs: int, seed: int,
          seconds: float) -> dict:
    seeds = [seed + k for k in range(pairs)]
    this, other = [], []
    for k, s in enumerate(seeds):
        order = [(ROOT, this), (against, other)] if against else [(ROOT, this)]
        for checkout, runs in (order if k % 2 == 0 else order[::-1]):
            runs.append(run_once(checkout, workload, s, seconds))
            print(f"{workload} seed {s} {checkout.name}: "
                  + " ".join(f"{name} {runs[-1]['result']['metrics'][name]['value']:.4g}"
                             for name in METRICS), file=sys.stderr)
    env = this[0]["report"]["environment"]
    out = {"workload": workload, "pairs": pairs if against else None,
           "runs_per_side": pairs, "seeds": seeds, "seconds": seconds,
           "environment": {key: env[key] for key in
                           ("nproc", "python", "numpy", "blas", "blas_config",
                            "blas_threads")},
           "this": side(ROOT, this)}
    if against:
        out["against"] = side(against, other)
        out["wins"] = {name: {
            "this": sum(a["result"]["metrics"][name]["value"]
                        < b["result"]["metrics"][name]["value"]
                        for a, b in zip(this, other)),
            "against": sum(b["result"]["metrics"][name]["value"]
                           < a["result"]["metrics"][name]["value"]
                           for a, b in zip(this, other))} for name in METRICS}
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--against", type=Path, metavar="CHECKOUT",
                        help="another checkout to run in alternating pairs")
    parser.add_argument("--workload", action="append", choices=WORKLOADS,
                        help="a workload to run (repeat); default: all")
    parser.add_argument("--pairs", type=int, default=10,
                        help="runs per side (default 10)")
    parser.add_argument("--seed", type=int, default=1, help="first seed")
    parser.add_argument("--seconds", type=float, default=BENCHMARK["run_seconds"],
                        help="--seconds of each run (default: BENCHMARK.json's)")
    args = parser.parse_args()
    against = args.against.resolve() if args.against else None
    short = (git_sha(ROOT) or "nogit")[:7]
    bad = False
    for workload in args.workload or WORKLOADS:
        out = bench(workload, against, args.pairs, args.seed, args.seconds)
        path = ROOT / f"BENCH_{short}_{workload}.json"
        path.write_text(json.dumps(out, indent=1) + "\n")
        bad |= not out["this"]["correct"] or not out.get("against", out["this"])["correct"]
        for name in METRICS:
            line = f"{workload} {name}: this {out['this']['metrics'][name]['median']:.4g}"
            if against:
                line += (f" against {out['against']['metrics'][name]['median']:.4g}"
                         f" (IQR {out['against']['metrics'][name]['iqr']:.3g}), wins "
                         f"{out['wins'][name]['this']}-{out['wins'][name]['against']}")
            print(line)
        print(f"wrote {path.name}")
    return int(bad)


if __name__ == "__main__":
    sys.exit(main())
