"""The benchmark's workloads.

Each workload is a closed loop: one caller in one process issues the next
request only after the previous one returned. The library is reached only
through public entry points: ``magnomech.cli.main([...])`` in-process and
the names re-exported from ``magnomech``.
"""

from __future__ import annotations

import contextlib
import csv
import functools
import hashlib
import io
import sys

import numpy as np

import checks
from tracing import exception_code

#: Outputs requested per point query: every E_N, every steering direction,
#: plus the values the checks need (verdict, eta^-, certificates).
QUERY_OUTPUTS = ("stable", "max_lyapunov",
                 "E_N(am)", "E_N(bm)", "E_N(ab)",
                 "S(a->m)", "S(m->a)", "S(b->m)", "S(m->b)", "S(a->b)", "S(b->a)",
                 "eta_minus(am)", "eta_minus(bm)", "eta_minus(ab)",
                 "residual", "physicality_margin")

#: Outputs compared with the reference; the certificates are checked
#: against their bounds instead.
QUERY_COMPARED = QUERY_OUTPUTS[:-2]

#: Queries per pass by reference class (kind/outcome). Fixed quotas keep the
#: mix, and so the latency percentiles, comparable across seeds; every
#: class with an error outcome keeps its share, so failures stay visible.
QUERY_QUOTAS = {
    "preset/stable": 60,
    "preset/unstable": 15,
    "grid/stable": 15,         # fig4b grid points
    "grid/unstable": 5,
    "grid/cross_check_mismatch": 5,
    "drive/fast": 70,          # fixed point in fewer than 50 iterations
    "drive/slow": 20,          # 50 iterations or more
    "drive/non_convergence": 10,
    "vanish/ok": 25,
}

#: Points per pass checked against the oracle.
ORACLE_SAMPLE = 12


class FigureGrid:
    """``magnomech figure <preset> --format csv --jobs 1`` over fixed presets.

    ``requests(jobs=2)`` gives the same requests on the process pool; traced
    runs use it to measure the pool's speed-up.
    """

    jobs = 1
    runs_sweeps = True

    def __init__(self, why: str, figures: tuple[str, ...], seed: int) -> None:
        self.why, self.figures = why, figures
        self.rng = np.random.default_rng(seed)
        self.references = {fig: checks.read_reference(f"{fig}.csv.gz")
                           for fig in figures}

    def requests(self, jobs: int | None = None) -> list:
        """One ``magnomech figure`` call per preset; each returns the CSV text."""
        jobs = self.jobs if jobs is None else jobs
        return [functools.partial(self._figure, fig, jobs) for fig in self.figures]

    @staticmethod
    def _figure(fig: str, jobs: int) -> str:
        from magnomech import cli
        argv = ["figure", fig, "--format", "csv", "--jobs", str(jobs)]
        buf = io.StringIO()
        try:
            with contextlib.redirect_stdout(buf):
                code = cli.main(argv)
        except Exception as exc:  # a crash fails every point of the figure
            print(f"magnomech {' '.join(argv)} raised {exc!r}", file=sys.stderr)
            code = -1
        return buf.getvalue() if code == 0 else ""

    def warm_up(self) -> None:
        """A 96-point E_N preset, so the first pass pays no first-call costs."""
        from magnomech import cli
        with contextlib.redirect_stdout(io.StringIO()):
            cli.main(["figure", "fig3d", "--format", "csv", "--jobs", str(self.jobs)])

    @staticmethod
    def digest(outputs: list[str]) -> str:
        return hashlib.sha256("\0".join(outputs).encode()).hexdigest()

    def check(self, outputs: list[str]) -> checks.CheckReport:
        report = checks.CheckReport()
        for fig, text in zip(self.figures, outputs):
            report.merge(checks.compare_csv(text, self.references[fig], fig))
        return report

    def oracle(self, outputs: list[str]) -> checks.CheckReport:
        """Seeded sample of stable points against the oracle, with certificates."""
        import magnomech as mg
        report = checks.CheckReport()
        per_figure = max(1, ORACLE_SAMPLE // len(self.figures))
        for fig, text in zip(self.figures, outputs):
            spec = mg.figure_preset(fig)
            reader = csv.reader(io.StringIO(text))
            header, rows = next(reader), list(reader)
            labels = [f"[{s.label}]" if s.label else "" for s in spec.series]
            points = [(i, k) for i, row in enumerate(rows)
                      for k, label in enumerate(labels)
                      if row[header.index("stable" + label)] == "1"
                      and not row[header.index("error" + label)]]
            for j in self.rng.choice(len(points), size=per_figure, replace=False):
                i, k = points[int(j)]
                params = checks.grid_params(spec, i, k)
                where = f"{fig} row {i + 1}{labels[k]} (oracle)"
                values = {}
                for col, cell in zip(header, rows[i]):
                    key = checks.oracle_key(col)
                    if key and checks.series_label(col) in ("", labels[k]):
                        values[key] = int(cell) if key == "stable" else float(cell)
                pairs = [key[4:6] for key in values if key.startswith("E_N(")]
                if pairs:
                    # eta^- and the certificates are not in the CSV; ask the library.
                    extra = mg.evaluate_point(
                        params, tuple(f"eta_minus({p})" for p in pairs)
                        + ("residual", "physicality_margin"))
                    values.update({f"eta_minus({p})": extra[f"eta_minus({p})"]
                                   for p in pairs})
                    checks.check_certificates(extra["residual"],
                                              extra["physicality_margin"],
                                              params, where, report)
                checks.check_against_oracle(params, params.delta_m_eff,
                                            params.G_eff, values, where, report)
        return report


class Queries:
    """A seeded, fixed mix of single-user library requests."""

    why = ("seeded single-user library mix: preset and drive-mode points with "
           "all E_N and steering, plus vanishing-temperature searches")
    jobs = 1
    runs_sweeps = False

    def __init__(self, seed: int, tiny: bool = False) -> None:
        import magnomech as mg
        self.rng = np.random.default_rng(seed)
        pool = checks.read_reference_json("queries.json.gz")
        by_class: dict[str, list[dict]] = {}
        for entry in pool:
            by_class.setdefault(entry["class"], []).append(entry)
        unknown = set(by_class) - set(QUERY_QUOTAS)
        if unknown:
            raise ValueError(f"query pool classes without a quota: {sorted(unknown)}")
        mix = []
        for cls, quota in QUERY_QUOTAS.items():
            count = max(1, quota // 5) if tiny else quota
            members = by_class[cls]
            picks = self.rng.choice(len(members), size=count, replace=False)
            mix.extend(members[int(k)] for k in picks)
        self.mix = [mix[int(k)] for k in self.rng.permutation(len(mix))]
        self.params = [mg.SystemParams(**entry["params"]) for entry in self.mix]

    def requests(self, jobs: int | None = None) -> list:
        """One library call per query; each returns an outputs dict."""
        return [functools.partial(self._query, entry, params)
                for entry, params in zip(self.mix, self.params)]

    @staticmethod
    def _query(entry: dict, params) -> dict:
        import magnomech as mg
        try:
            if entry["kind"] == "vanish":
                return {"error": "", "temperature": mg.vanishing_temperature(
                    params, entry["pair"], entry["t_lo"], entry["t_hi"])}
            return mg.evaluate_point(params, QUERY_OUTPUTS)
        except mg.MagnomechError as exc:
            return {"error": exception_code(exc), "temperature": None}
        except Exception as exc:  # not a library error: fails the check
            return {"error": exception_code(exc), "exception": repr(exc)}

    def warm_up(self) -> None:
        import magnomech as mg
        for entry, params in list(zip(self.mix, self.params))[:10]:
            if entry["kind"] != "vanish":
                mg.evaluate_point(params, QUERY_OUTPUTS)

    @staticmethod
    def digest(outputs: list[dict]) -> str:
        return hashlib.sha256(repr(outputs).encode()).hexdigest()

    def check(self, outputs: list[dict]) -> checks.CheckReport:
        report = checks.CheckReport()
        for k, (entry, result) in enumerate(zip(self.mix, outputs)):
            label = f"query {entry['id']} ({entry['class']})"
            if "exception" in result:
                report.record(result["error"], f"{label}: {result['exception']}", False)
            elif entry["kind"] == "vanish":
                checks.compare_values(result, entry["expect"], ("temperature",),
                                      label, report, atol=checks.ATOL["temperature"])
            else:
                checks.compare_values(result, entry["expect"], QUERY_COMPARED,
                                      label, report)
                if result["stable"] == 1 and not result["error"]:
                    checks.check_certificates(result["residual"],
                                              result["physicality_margin"],
                                              self.params[k], label, report)
        return report

    def oracle(self, outputs: list[dict]) -> checks.CheckReport:
        """Seeded sample of stable points against the oracle."""
        import magnomech as mg
        report = checks.CheckReport()
        stable = [k for k, r in enumerate(outputs)
                  if r.get("stable") == 1 and not r["error"]]
        size = min(ORACLE_SAMPLE, len(stable))
        for k in self.rng.choice(stable, size=size, replace=False):
            params, result = self.params[int(k)], outputs[int(k)]
            label = f"query {self.mix[int(k)]['id']} (oracle)"
            wp = mg.working_point(params)
            problem = checks.oracle_working_point(params, wp)
            if problem:
                report.fail(f"{label}: {problem}")
                continue
            values = {key: result[key] for key in QUERY_COMPARED if key != "stable"}
            checks.check_against_oracle(params, wp.delta_m_eff, wp.G, values,
                                        label, report)
        return report


#: Why each grid workload is in the benchmark (also in BENCHMARK.json).
STABILITY_WHY = ("fig2a-c stability maps at --jobs 1, 30,603 points: working "
                 "point, drift, eigenvalues and sweep driver in bulk; covariance "
                 "layers idle")
ENTANGLEMENT_WHY = ("fig3a-d, fig5 and fig6a-b E_N/steering presets at --jobs 1, "
                    "1,657 points: Lyapunov, PPT and steering layers dominate "
                    "through the CLI sweep path")
ENTANGLEMENT_FIGURES = ("fig3a", "fig3b", "fig3c", "fig3d", "fig5", "fig6a", "fig6b")


def make(name: str, seed: int, tiny: bool = False):
    if name == "stability-grid":
        return FigureGrid(STABILITY_WHY, ("fig2a", "fig2b", "fig2c"), seed)
    if name == "entanglement-grid":
        return FigureGrid(ENTANGLEMENT_WHY, ENTANGLEMENT_FIGURES, seed)
    if name == "queries":
        return Queries(seed, tiny)
    raise ValueError(f"unknown workload {name!r}")


WORKLOAD_NAMES = ("stability-grid", "entanglement-grid", "queries")
