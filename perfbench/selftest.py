"""Self-test of the benchmark itself (not part of the library's test suite).

    python3 perfbench/selftest.py

1. Every workload runs at tiny size, untraced and traced, and the result line
   names exactly the metrics of BENCHMARK.json, each with its unit.
2. The output checks fail when one reference cell, value, empty (unstable)
   cell or error code is perturbed, and report (not fail) a cell that
   errored in the reference.
3. The oracle rejects a perturbed measure.
4. Without the library sources the benchmark exits non-zero and prints no
   result.

Exits non-zero on the first failure.
"""

from __future__ import annotations

import copy
import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import workloads  # noqa: E402


def run_benchmark(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=300)


def test_tiny_runs_print_every_metric() -> None:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOAD_NAMES)
    for w in spec["workloads"]:
        assert workloads.make(w["name"], 0, tiny=True).why == w["why"], w["name"]
    for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
        expected = {m["name"]: m["unit"] for m in spec[kind]}
        for name in workloads.WORKLOAD_NAMES:
            proc = run_benchmark(ROOT, "--workload", name, "--seed", "7",
                                 "--seconds", "1", "--trace", str(trace), "--tiny")
            assert proc.returncode == 0, proc.stderr[-2000:]
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            assert set(result) == {"correct", "attempted", "failed", "metrics"}
            assert result["correct"] is True and result["failed"] == 0, result
            assert result["attempted"] >= 1
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            assert got == expected, (name, trace, set(got) ^ set(expected))
            for metric in result["metrics"].values():
                assert isinstance(metric["value"], (int, float)), metric
            print(f"ok tiny {name} trace={trace}")


def _perturb_cell(text: str, row: int, column: str, value: str) -> str:
    lines = text.splitlines(keepends=True)
    header = lines[0].rstrip("\n").split(",")
    cells = lines[row].rstrip("\n").split(",")
    cells[header.index(column)] = value
    lines[row] = ",".join(cells) + "\n"
    return "".join(lines)


def test_csv_check_catches_one_perturbed_cell() -> None:
    ref = checks.read_reference("fig2a.csv.gz")
    assert checks.compare_csv(ref, ref, "fig2a").failed == 0
    row = 2
    value = float(ref.splitlines()[row].split(",")[3])
    for column, cell in (("max_lyapunov_rad_s", repr(value * (1 + 1e-6))),
                         ("stable", "1")):
        bad = _perturb_cell(ref, row, column, cell)
        report = checks.compare_csv(ref, bad, "fig2a")
        assert report.failed == 1, (column, report.problems)
    fig6b = checks.read_reference("fig6b.csv.gz")
    assert checks.compare_csv(fig6b, fig6b, "fig6b").failed == 0
    assert checks.compare_csv(
        fig6b, _perturb_cell(fig6b, 1, "E_N_am_nats[loss]", "1e-3"), "fig6b").failed == 1
    errored = _perturb_cell(_perturb_cell(fig6b, 1, "error[gain]", "cross_check_mismatch"),
                            1, "E_N_am_nats[gain]", "")
    assert checks.compare_csv(
        errored, _perturb_cell(errored, 1, "error[gain]", "singular_solve"),
        "fig6b").failed == 1
    # A reference error that now returns a value is reported, not failed.
    report = checks.compare_csv(fig6b, errored, "fig6b")
    assert report.failed == 0 and report.recovered == 1, report.problems
    # A value that turns into an error fails.
    report = checks.compare_csv(errored, fig6b, "fig6b")
    assert report.failed == 1, report.problems
    print("ok csv check")


def test_query_check_catches_one_perturbed_value() -> None:
    pool = checks.read_reference_json("queries.json.gz")
    entry = next(e for e in pool if e["class"] == "preset/stable")
    ref = entry["expect"]
    report = checks.CheckReport()
    checks.compare_values(ref, ref, workloads.QUERY_COMPARED, "q", report)
    assert report.failed == 0
    bad = copy.deepcopy(ref)
    bad["eta_minus(am)"] *= 1 + 1e-6
    report = checks.CheckReport()
    checks.compare_values(ref, bad, workloads.QUERY_COMPARED, "q", report)
    assert report.failed == 1, report.problems
    unstable = next(e for e in pool if e["class"] == "grid/unstable")["expect"]
    assert unstable["E_N(bm)"] is None
    report = checks.CheckReport()
    checks.compare_values(dict(unstable, **{"E_N(bm)": 0.0}), unstable,
                          workloads.QUERY_COMPARED, "q", report)
    assert report.failed == 1, report.problems
    vanish = next(e for e in pool if e["kind"] == "vanish")["expect"]
    bad = dict(vanish, temperature=vanish["temperature"] + 1e-3)
    report = checks.CheckReport()
    checks.compare_values(vanish, bad, ("temperature",), "v", report,
                          atol=checks.ATOL["temperature"])
    assert report.failed == 1, report.problems
    print("ok query check")


def test_oracle_rejects_a_perturbed_measure() -> None:
    import magnomech as mg
    params = mg.default_params().replace(kappa_a=-0.02 * mg.default_params().omega_b)
    out = mg.evaluate_point(params, workloads.QUERY_OUTPUTS)
    values = {k: out[k] for k in workloads.QUERY_COMPARED if k != "stable"}
    report = checks.CheckReport()
    checks.check_against_oracle(params, params.delta_m_eff, params.G_eff,
                                values, "oracle", report)
    assert report.failed == 0, report.problems
    values["E_N(am)"] += 1e-5
    checks.check_against_oracle(params, params.delta_m_eff, params.G_eff,
                                values, "oracle", report)
    assert report.failed == 1, report.problems
    print("ok oracle")


def test_exits_nonzero_without_sources() -> None:
    with tempfile.TemporaryDirectory(prefix=".perfbench-selftest-", dir=ROOT) as tmp:
        tmp = Path(tmp)
        shutil.copy(ROOT / "BENCHMARK.json", tmp)
        shutil.copytree(HERE, tmp / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = run_benchmark(tmp, "--workload", "queries", "--seed", "1",
                             "--seconds", "1", "--trace", "0")
        assert proc.returncode != 0 and not proc.stdout.strip(), proc.stdout
    print("ok no sources")


def main() -> int:
    test_csv_check_catches_one_perturbed_cell()
    test_query_check_catches_one_perturbed_value()
    test_oracle_rejects_a_perturbed_measure()
    test_exits_nonzero_without_sources()
    test_tiny_runs_print_every_metric()
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
