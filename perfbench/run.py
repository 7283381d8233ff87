"""magnomech benchmark: one workload, one run.

    python3 perfbench/run.py --workload stability-grid --seed 1 --seconds 25 --trace 0

Run from the root of a source checkout; the library is imported from
``src/``. The run builds its inputs from ``--seed``, warms up with a small
request on the same code paths, then repeats passes of the workload for
``--seconds``, checks every pass's outputs, and times cold starts of
``python -m magnomech measures``. It prints one report line (environment,
failures by error code, sample counts, raw times) and, last, the result
line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end ones, untraced. With
``--trace 1`` they are the per-layer ones from a traced run, with the
tracing overhead measured against untraced passes in the same run.
``--tiny`` runs one pass without warm-up and one cold start, for the
self-test.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path
from statistics import median

from calibration import EVERY_S, NOMINAL_S, Calibration

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "query_ms_p50": "ms",
    "query_ms_p90": "ms",
    "peak_rss_mb": "MB",
}

#: Spans reported with self time and call count, by metric prefix.
SPAN_METRICS = ("steady_state.working_point", "dynamics.drift",
                "dynamics.stability", "dynamics.diffusion", "measures.lyapunov",
                "measures.physicality", "measures.pair", "measures.ppt_check",
                "measures.steering", "sweep.driver", "sweep.evaluate",
                "sweep.to_csv", "sweep.vanish")

SETUP_RUNS = 7
CHILD_TIMEOUT_S = 60


def per_layer_units() -> dict[str, str]:
    from tracing import ERROR_CODES
    units = {}
    for span in SPAN_METRICS:
        units[f"{span}.self_s"] = "s"
        units[f"{span}.calls"] = "count"
    units.update({
        "steady_state.iterations": "count",
        "dynamics.stable_ratio": "ratio",
        "measures.lyapunov.max_rel_residual": "ratio",
        "measures.cross_check_failures": "count",
        "sweep.points": "count",
    })
    units.update({f"sweep.failed.{code}": "count" for code in ERROR_CODES})
    units.update({
        "sweep.pool.speedup": "ratio",
        "config.build_s": "s",
        "cli.self_s": "s",
        "setup.import_s": "s",
        "setup.first_point_s": "s",
        "trace.traced_wall_s": "s",
        "trace.untraced_wall_s": "s",
        "trace.overhead": "ratio",
    })
    return units


def environment(seed: int) -> dict:
    import numpy as np
    import scipy
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            digest.update(path.relative_to(SRC).as_posix().encode())
            digest.update(path.read_bytes())
    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, text=True,
                             capture_output=True, timeout=10).stdout.strip() or None
    except (OSError, subprocess.TimeoutExpired):
        sha = None
    return {
        "seed": seed,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_config": blas.get("openblas configuration", ""),
        "blas_threads": {k: os.environ.get(k, "unset") for k in
                         ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "git_sha": sha,
        "src_sha256": digest.hexdigest(),
    }


def quantile(values: list[float], q: float) -> float:
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[round(q * 100) - 1]


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


def cold_starts(runs: int, traced: bool, report) -> list[dict]:
    """Time fresh interpreters; the first run only warms file caches.

    Cold starts are not normalised: their time goes to imports and file
    reads as much as to the CPU work the calibration kernel tracks.
    """
    import checks
    reference = checks.read_reference("measures.json.gz")
    samples = []
    for k in range(runs + 1):
        if traced:
            argv = [sys.executable, str(HERE / "coldstart.py"), "--trace"]
        else:
            argv = [sys.executable, "-m", "magnomech", "measures"]
        start = time.perf_counter()
        proc = subprocess.run(argv, cwd=ROOT, env=child_env(), text=True,
                              capture_output=True, timeout=CHILD_TIMEOUT_S)
        elapsed = time.perf_counter() - start
        if traced and proc.returncode == 0:
            sample = json.loads(proc.stdout.strip().splitlines()[-1])
            output = sample["output"]
        else:
            sample, output = {}, proc.stdout
        sample["wall_s"] = elapsed
        if proc.returncode != 0 or sample.get("code", 0) != 0:
            report.fail(f"cold start exited {proc.returncode}: {proc.stderr[-300:]}")
        elif not checks.same_measures(output, reference):
            report.fail("cold start: measures output differs from the reference")
        if k > 0:
            samples.append(sample)
    return samples


class Run:
    """The passes of one run: timing, calibration and output checks."""

    def __init__(self, workload, calibration) -> None:
        import checks
        self.workload = workload
        self.calibration = calibration
        self.report = checks.CheckReport()
        self.verdicts: dict[str, object] = {}
        self.first_outputs = None

    def one_pass(self, jobs: int | None = None) -> dict:
        """Run every request once; returns raw and normalised times.

        Only in-process requests are normalised (see calibration.py); pool
        requests keep their raw times.
        """
        clock = time.perf_counter
        jobs = self.workload.jobs if jobs is None else jobs
        outputs, raw, normalised, group = [], [], [], []
        requests = self.workload.requests(jobs)
        before = self.calibration.measure() if jobs == 1 else None
        for k, request in enumerate(requests):
            start = clock()
            outputs.append(request())
            group.append(clock() - start)
            if sum(group) >= EVERY_S or k == len(requests) - 1:
                raw.extend(group)
                if before is None:
                    normalised.extend(group)
                else:
                    after = self.calibration.measure()
                    factor = self.calibration.factor(before, after)
                    normalised.extend(t * factor for t in group)
                    before = after
                group = []
        key = self.workload.digest(outputs)
        if key not in self.verdicts:
            self.verdicts[key] = self.workload.check(outputs)
            if self.first_outputs is None:
                self.first_outputs = outputs
        self.report.merge(self.verdicts[key])
        return {"raw": raw, "normalised": normalised}


def measure_untraced(run: Run, seconds: float, tiny: bool) -> dict:
    if not tiny:
        run.workload.warm_up()
    walls, raw_walls, latencies, raw_latencies = [], [], [], []
    start = time.perf_counter()
    while not walls or (not tiny and (time.perf_counter() - start < seconds
                                      or len(walls) < 3)):
        times = run.one_pass()
        walls.append(sum(times["normalised"]))
        raw_walls.append(sum(times["raw"]))
        latencies.extend(times["normalised"])
        raw_latencies.extend(times["raw"])
    usage_self = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    usage_children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    p90 = quantile(latencies, 0.90)
    return {
        "wall_s": median(walls),
        "query_ms_p50": 1e3 * quantile(latencies, 0.50),
        "query_ms_p90": 1e3 * p90,
        "peak_rss_mb": (usage_self + usage_children) / 1024.0,
        "_raw": {"wall_s": median(raw_walls),
                 "query_ms_p50": 1e3 * quantile(raw_latencies, 0.50),
                 "query_ms_p90": 1e3 * quantile(raw_latencies, 0.90)},
        "_samples": {"passes": len(walls), "requests": len(latencies),
                     "beyond_p90": sum(1 for x in latencies if x > p90),
                     "peak_rss_self_mb": usage_self / 1024.0,
                     "peak_rss_largest_child_mb": usage_children / 1024.0},
    }


def layer_metrics(tracer) -> dict:
    from tracing import ERROR_CODES
    out = {}
    for span in SPAN_METRICS:
        out[f"{span}.self_s"] = tracer.self_s.get(span, 0.0)
        out[f"{span}.calls"] = tracer.calls.get(span, 0)
    stability_calls = tracer.calls.get("dynamics.stability", 0)
    out["steady_state.iterations"] = int(tracer.counts.get("steady_state.iterations", 0))
    out["dynamics.stable_ratio"] = (tracer.counts.get("dynamics.stable", 0)
                                    / stability_calls if stability_calls else 0.0)
    out["measures.lyapunov.max_rel_residual"] = tracer.max_rel_residual
    out["measures.cross_check_failures"] = int(
        tracer.counts.get("measures.cross_check_failures", 0))
    out["sweep.points"] = int(tracer.counts.get("sweep.points", 0))
    for code in ERROR_CODES:
        out[f"sweep.failed.{code}"] = int(tracer.counts.get(f"sweep.failed.{code}", 0))
    return out


def measure_traced(run: Run, seconds: float, tiny: bool) -> dict:
    """Alternate untraced and traced passes; all times are raw.

    Grid workloads also run an untraced pass on the two-process pool
    (``--jobs 2``) for ``sweep.pool.speedup``. The traced pass runs
    in-process: spans recorded in pool workers would be lost with them.
    """
    import tracing
    if not tiny:
        run.workload.warm_up()
    untraced, pooled, traced, layers = [], [], [], []
    start = time.perf_counter()
    while not traced or (not tiny and (time.perf_counter() - start < seconds
                                       or len(traced) < 2)):
        untraced.append(sum(run.one_pass()["raw"]))
        if run.workload.runs_sweeps:
            pooled.append(sum(run.one_pass(jobs=2)["raw"]))
        with tracing.Tracer() as tracer:
            traced.append(sum(run.one_pass()["raw"]))
        layers.append(layer_metrics(tracer))
    metrics = {key: median([m[key] for m in layers]) for key in layers[0]}
    metrics["sweep.pool.speedup"] = median(untraced) / median(pooled) \
        if pooled else 1.0
    metrics["trace.traced_wall_s"] = median(traced)
    metrics["trace.untraced_wall_s"] = median(untraced)
    metrics["trace.overhead"] = median(traced) / median(untraced)
    metrics["_raw"] = {}
    metrics["_samples"] = {"traced_passes": len(traced),
                           "untraced_passes": len(untraced) + len(pooled)}
    return metrics


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="one pass, no warm-up, one cold start (self-test size)")
    args = parser.parse_args(argv)

    if not (SRC / "magnomech" / "__init__.py").is_file():
        print(f"error: no magnomech sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    import checks
    import workloads
    if args.workload not in workloads.WORKLOAD_NAMES:
        print(f"error: unknown workload {args.workload!r}; valid: "
              f"{', '.join(workloads.WORKLOAD_NAMES)}", file=sys.stderr)
        return 2

    workload = workloads.make(args.workload, args.seed, tiny=args.tiny)
    calibration = Calibration()
    run = Run(workload, calibration)
    if args.trace:
        measured = measure_traced(run, args.seconds, args.tiny)
    else:
        measured = measure_untraced(run, args.seconds, args.tiny)
    run.report.merge(workload.oracle(run.first_outputs))
    setup_runs = 1 if args.tiny else SETUP_RUNS
    cold = cold_starts(setup_runs if not args.trace else max(1, setup_runs // 2),
                       bool(args.trace), run.report)
    samples = measured.pop("_samples")
    raw = measured.pop("_raw")
    if args.trace:
        measured["setup.import_s"] = median([c["import_s"] for c in cold])
        measured["setup.first_point_s"] = median([c["first_point_s"] for c in cold])
        measured["config.build_s"] = median([c["config_s"] for c in cold])
        measured["cli.self_s"] = median([c["cli_self_s"] for c in cold])
        units = per_layer_units()
    else:
        measured["setup_s"] = median([c["wall_s"] for c in cold])
        units = END_TO_END
    samples["setup_runs"] = len(cold)

    report = run.report
    metrics = {name: {"value": measured[name], "unit": unit}
               for name, unit in units.items()}
    print(json.dumps({
        "workload": args.workload,
        "why": workload.why,
        "trace": args.trace,
        "environment": environment(args.seed),
        "attempted": report.attempted,
        "failed_checks": report.failed,
        "failed_fraction": report.bad / max(report.attempted, 1),
        "error_codes": report.error_codes,
        "recovered": report.recovered,
        "problems": report.problems,
        "samples": samples,
        "raw_unnormalised": raw,
        "calibration_s": {"nominal": NOMINAL_S,
                          "median": median(calibration.samples),
                          "min": min(calibration.samples),
                          "max": max(calibration.samples),
                          "count": len(calibration.samples)}
        if calibration.samples else None,
        "metrics": metrics,
    }))
    print(json.dumps({"correct": report.failed == 0,
                      "attempted": report.attempted,
                      "failed": report.failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
