"""Grid sweeps, figure presets, stability maps and the vanishing-temperature search."""

from __future__ import annotations

import functools
import io
import json
import math
import re
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, fields, replace

import numpy as np

from . import measures as _measures
from .config import build_params, default_config
from .dynamics import (GAIN_NOISE_MODES, StabilityReport, diffusion_from_params,
                       drift_from_params, stability)
from .errors import (BracketInvalidError, MagnomechError, ParameterError,
                     UnstableSystemError)
from .model import SystemParams
from .steady_state import working_point

#: Relative (to omega_b) tolerance used for every stability verdict in sweeps.
STABILITY_REL_TOL = 1e-9

_NUMERIC_FIELDS = tuple(f.name for f in fields(SystemParams))

#: Derived sweep parameters: name -> (target field, reference field or None).
_DERIVED_PARAMS = {
    "G_over_omega_b": ("G_eff", "omega_b"),
    "G_over_gma": ("G_eff", "g_ma"),
    "gma_over_omega_b": ("g_ma", "omega_b"),
    "gma_over_G": ("g_ma", "G_eff"),
    "kappa_a_over_kappa_m": ("kappa_a", "kappa_m"),
    "delta_over_omega_b": (None, None),  # sets delta_a and delta_m_eff jointly
}

_AXIS_COLUMNS = {
    "G_over_omega_b": "G/omega_b",
    "G_over_gma": "G/g_ma",
    "gma_over_omega_b": "g_ma/omega_b",
    "gma_over_G": "g_ma/G",
    "kappa_a_over_kappa_m": "kappa_a/kappa_m",
    "delta_over_omega_b": "Delta/omega_b",
    "temperature": "T_K",
}

_OUTPUT_COLUMNS = {
    "stable": "stable",
    "max_lyapunov": "max_lyapunov_rad_s",
    "pt_phase": "pt_phase",
    "residual": "residual",
    "physicality_margin": "physicality_margin",
}

#: Column name of each per-pair or per-direction output kind.
_KIND_COLUMNS = {"e_n": "E_N_{}_nats", "eta": "eta_minus_{}",
                 "steering": "S_{}_to_{}_nats"}

_MEASURE_RE = re.compile(r"^E_N\((am|bm|ab)\)$")
_STEER_RE = re.compile(r"^S\(([amb])->([amb])\)$")
_ETA_RE = re.compile(r"^eta_minus\((am|bm|ab)\)$")


def _check_parameter_name(name: str) -> None:
    if name not in _NUMERIC_FIELDS and name not in _DERIVED_PARAMS:
        raise ParameterError(
            f"unknown sweep parameter {name!r}; valid: "
            f"{sorted(_NUMERIC_FIELDS) + sorted(_DERIVED_PARAMS) + ['temperature']}")


def apply_parameter(params: SystemParams, name: str, value: float) -> SystemParams:
    """Return a copy of ``params`` with one swept parameter applied."""
    _check_parameter_name(name)
    if name == "temperature":
        return params.replace(temperature=value)
    if name == "delta_over_omega_b":
        d = value * params.omega_b
        return params.replace(delta_a=d, delta_m_eff=d)
    if name in _DERIVED_PARAMS:
        target, ref = _DERIVED_PARAMS[name]
        ref_val = getattr(params, ref)
        if ref_val is None:
            raise ParameterError(f"sweep parameter {name} needs {ref} to be set")
        return params.replace(**{target: value * ref_val})
    return params.replace(**{name: value})


@dataclass(frozen=True)
class Axis:
    name: str
    lo: float
    hi: float
    count: int

    def __post_init__(self) -> None:
        if self.count < 2:
            raise ParameterError("axis count must be >= 2")
        if not self.lo < self.hi:
            raise ParameterError("axis requires lo < hi")

    def values(self) -> np.ndarray:
        return np.linspace(self.lo, self.hi, self.count)


@dataclass(frozen=True)
class Series:
    """One labeled curve: parameter overrides applied on top of the base."""

    label: str = ""
    overrides: tuple[tuple[str, float], ...] = ()


@dataclass(frozen=True)
class SweepSpec:
    base: SystemParams
    axes: tuple[Axis, ...]
    outputs: tuple[str, ...]
    series: tuple[Series, ...] = (Series(),)
    gain_noise: str = "vacuum"

    def __post_init__(self) -> None:
        if len(self.axes) not in (1, 2):
            raise ParameterError("a sweep needs 1 or 2 axes")
        if self.gain_noise not in GAIN_NOISE_MODES:
            raise ParameterError(f"gain_noise must be one of {GAIN_NOISE_MODES}")
        for axis in self.axes:
            _check_parameter_name(axis.name)
        for out in self.outputs:
            _classify_output(out)

    def grid(self) -> list[tuple[float, ...]]:
        """Grid points in row order, first axis outermost."""
        if len(self.axes) == 1:
            return [(v,) for v in self.axes[0].values()]
        first, second = self.axes[0].values(), self.axes[1].values()
        return [(u, v) for u in first for v in second]


def _classify_output(output: str) -> tuple[str, tuple]:
    """(kind, arguments) of one output name.

    Kinds: "report" (read off the stability verdict), "cm" (a certificate of
    the covariance matrix), "e_n"/"eta" (pair) and "steering" (two modes).
    """
    if output in _OUTPUT_COLUMNS:
        return ("cm" if output in ("residual", "physicality_margin")
                else "report"), ()
    m = _MEASURE_RE.match(output)
    if m:
        return "e_n", (m.group(1),)
    m = _ETA_RE.match(output)
    if m:
        return "eta", (m.group(1),)
    m = _STEER_RE.match(output)
    if m:
        if m.group(1) == m.group(2):
            raise ParameterError(f"steering needs two distinct modes: {output}")
        return "steering", (m.group(1), m.group(2))
    raise ParameterError(f"unknown sweep output {output!r}")


def solve_point(params: SystemParams, gain_noise: str = "vacuum",
                covariance: bool = False, require_stable: bool = False
                ) -> tuple[StabilityReport, _measures.CovarianceMatrix | None]:
    """Working point -> drift -> stability -> diffusion -> Lyapunov covariance.

    Returns the stability report and, when ``covariance`` is set and the
    point is stable, the covariance matrix (else None). With
    ``require_stable`` an unstable point raises UnstableSystemError instead.
    """
    drift = drift_from_params(params, working_point(params))
    tol = STABILITY_REL_TOL * params.omega_b
    report = stability(drift, tol)
    if not covariance or not (report.stable or require_stable):
        return report, None
    diffusion = diffusion_from_params(params, gain_noise=gain_noise)
    return report, _measures.solve_lyapunov(drift, diffusion, stability_tol=tol,
                                            stability_report=report)


def evaluate_point(params: SystemParams, outputs: tuple[str, ...],
                   gain_noise: str = "vacuum") -> dict:
    """Evaluate all requested outputs at a single parameter point.

    Unstable points yield None for every covariance-based output (sentinel),
    never zeros. Per-point failures are reported in the "error" entry.
    """
    result: dict = {out: None for out in outputs}
    result["error"] = ""
    try:
        kinds = [_classify_output(out) for out in outputs]
        report, cm = solve_point(params, gain_noise, covariance=any(
            kind != "report" for kind, _ in kinds))
        if "stable" in result:
            result["stable"] = int(report.stable)
        if "max_lyapunov" in result:
            result["max_lyapunov"] = report.max_lyapunov
        if "pt_phase" in result:
            result["pt_phase"] = params.pt_phase().tag
        if cm is None:
            return result
        if "residual" in result:
            result["residual"] = cm.residual
        if "physicality_margin" in result:
            result["physicality_margin"] = cm.physicality_margin
        cache: dict[str, _measures.PairMeasures] = {}
        for out, (kind, args) in zip(outputs, kinds):
            if kind in ("e_n", "eta"):
                pair = args[0]
                if pair not in cache:
                    cache[pair] = _measures.pair_measures(cm, pair)
                result[out] = cache[pair].e_n if kind == "e_n" \
                    else cache[pair].eta_minus
            elif kind == "steering":
                result[out] = _measures.steering_between(cm, args[0], args[1])
    except MagnomechError as exc:
        result["error"] = exc.code
    return result


def _series_params(spec: SweepSpec, series: Series,
                   point: tuple[float, ...]) -> SystemParams:
    params = spec.base
    for name, value in series.overrides:
        params = apply_parameter(params, name, value)
    for axis, value in zip(spec.axes, point):
        params = apply_parameter(params, axis.name, value)
    return params


def _evaluate_range(spec: SweepSpec, start: int, stop: int) -> list[list]:
    grid = spec.grid()
    rows = []
    for i in range(start, stop):
        point = grid[i]
        row: list = list(point)
        for series in spec.series:
            try:
                params = _series_params(spec, series, point)
                values = evaluate_point(params, spec.outputs, spec.gain_noise)
            except MagnomechError as exc:
                values = {out: None for out in spec.outputs}
                values["error"] = exc.code
            row.extend(values[out] for out in spec.outputs)
            row.append(values["error"])
        rows.append(row)
    return rows


@dataclass
class SweepResult:
    spec: SweepSpec
    columns: list[str]
    rows: list[list]

    def column(self, name: str, series_label: str = "") -> list:
        """Values of one output column for one series."""
        return [row[self._column_index(name, series_label)] for row in self.rows]

    def _column_index(self, name: str, series_label: str = "") -> int:
        target = _decorate(_column_names(self.spec).get(name, name), series_label)
        try:
            return self.columns.index(target)
        except ValueError as exc:
            raise KeyError(f"no column {target!r}; have {self.columns}") from exc

    def stable_fraction(self, series_label: str = "") -> float:
        values = self.column("stable", series_label)
        return sum(1 for v in values if v) / len(values)

    def to_csv(self) -> str:
        """Deterministic CSV: header plus one row per grid point, 12 significant
        digits for floats, empty cell for sentinel (unstable) values."""
        buf = io.StringIO()
        buf.write(",".join(self.columns) + "\n")
        for row in self.rows:
            buf.write(",".join(_format_cell(v) for v in row) + "\n")
        return buf.getvalue()

    def to_json(self) -> str:
        objs = [dict(zip(self.columns, row)) for row in self.rows]
        return json.dumps(objs, indent=None, separators=(",", ":")) + "\n"


def _format_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, str):
        return value
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return f"{value:.12g}"


def _column_names(spec: SweepSpec) -> dict[str, str]:
    """Undecorated column of each axis and output of ``spec``, and the error."""
    names = {axis.name: _AXIS_COLUMNS.get(axis.name, f"{axis.name}_rad_s")
             for axis in spec.axes}
    for out in spec.outputs:
        kind, args = _classify_output(out)
        names[out] = _OUTPUT_COLUMNS.get(out) or _KIND_COLUMNS[kind].format(*args)
    names["error"] = "error"
    return names


def _decorate(column: str, label: str) -> str:
    return f"{column}[{label}]" if label else column


def _result_columns(spec: SweepSpec) -> list[str]:
    names = _column_names(spec)
    cols = [names[axis.name] for axis in spec.axes]
    for series in spec.series:
        cols.extend(_decorate(names[out], series.label)
                    for out in (*spec.outputs, "error"))
    return cols


def run_sweep(spec: SweepSpec, jobs: int = 1) -> SweepResult:
    """Evaluate the grid; results are identical for any worker count."""
    n = len(spec.grid())
    if jobs < 1:
        raise ParameterError("jobs must be >= 1")
    if jobs == 1 or n < 64:
        rows = _evaluate_range(spec, 0, n)
    else:
        chunk = max(1, math.ceil(n / (jobs * 4)))
        bounds = [(s, min(s + chunk, n)) for s in range(0, n, chunk)]
        rows_by_chunk: list[list[list]] = [None] * len(bounds)  # type: ignore
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            futures = [pool.submit(_evaluate_range, spec, s, e) for s, e in bounds]
            for i, fut in enumerate(futures):
                rows_by_chunk[i] = fut.result()
        rows = [row for chunk_rows in rows_by_chunk for row in chunk_rows]
    return SweepResult(spec=spec, columns=_result_columns(spec), rows=rows)


def stability_map(spec: SweepSpec, jobs: int = 1) -> tuple[SweepResult, dict]:
    """Run a sweep restricted to stability and report stable-area fractions."""
    if "stable" not in spec.outputs:
        spec = replace(spec, outputs=tuple(spec.outputs) + ("stable",))
    result = run_sweep(spec, jobs=jobs)
    fractions = {s.label: result.stable_fraction(s.label) for s in spec.series}
    return result, fractions


def vanishing_temperature(base: SystemParams, pair: str, t_lo: float,
                          t_hi: float, tol: float = 1e-4,
                          gain_noise: str = "vacuum") -> float:
    """Bisect for the temperature where the pair's entanglement reaches zero.

    Requires E_N > 0 at ``t_lo`` and E_N = 0 at ``t_hi`` with the system
    stable across the bracket; returns the midpoint of the final bracket,
    with absolute tolerance ``tol`` kelvin (default 0.1 mK).
    """
    def e_n(temperature: float) -> float:
        _, cm = solve_point(base.replace(temperature=temperature), gain_noise,
                            covariance=True, require_stable=True)
        return _measures.pair_measures(cm, pair).e_n

    if not t_lo < t_hi:
        raise BracketInvalidError("need t_lo < t_hi")
    try:
        lo_val, hi_val = e_n(t_lo), e_n(t_hi)
    except UnstableSystemError as exc:
        raise BracketInvalidError(f"system unstable inside bracket: {exc}") from exc
    if lo_val <= 0.0:
        raise BracketInvalidError(f"E_N({pair}) = 0 already at {t_lo} K")
    if hi_val > 0.0:
        raise BracketInvalidError(f"E_N({pair}) = {hi_val:.3g} > 0 still at {t_hi} K")
    lo, hi = t_lo, t_hi
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if e_n(mid) > 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


# --- figure presets ---------------------------------------------------------

_MK = 1e-3

FIGURE_NAMES = ("fig2a", "fig2b", "fig2c", "fig2d", "fig3a", "fig3b", "fig3c",
                "fig3d", "fig4a", "fig4b", "fig4c", "fig4d", "fig5", "fig6a",
                "fig6b")


def default_params() -> SystemParams:
    """Shared operating point of the figure presets: the bundled config."""
    return build_params(default_config())


def _gain_loss_series(base: SystemParams) -> tuple[Series, Series]:
    km = base.kappa_m
    return (Series("gain", (("kappa_a", 0.2 * km),)),
            Series("loss", (("kappa_a", -0.2 * km),)))


def figure_preset(name: str, gain_noise: str = "vacuum",
                  base: SystemParams | None = None) -> SweepSpec:
    """Fully populated sweep specification for one of the figure data sets.

    Each preset varies ``base``, by default :func:`default_params`.
    """
    if base is None:
        base = default_params()
    wb = base.omega_b
    gain, loss = _gain_loss_series(base)
    pair_by_panel = {"a": "am", "b": "bm", "c": "ab"}
    spec = functools.partial(SweepSpec, gain_noise=gain_noise)

    if name in ("fig2a", "fig2b"):
        kappa_a = -0.2 * base.kappa_m if name == "fig2a" else 0.2 * base.kappa_m
        return spec(
            base=base.replace(kappa_a=kappa_a),
            axes=(Axis("gma_over_omega_b", 0.0, 1.2, 101),
                  Axis("G_over_omega_b", 0.0, 0.6, 101)),
            outputs=("stable", "max_lyapunov"))
    if name == "fig2c":
        return spec(
            base=base.replace(g_ma=0.5 * wb),
            axes=(Axis("kappa_a_over_kappa_m", 0.0, 1.0, 101),
                  Axis("G_over_omega_b", 0.0, 0.6, 101)),
            outputs=("stable", "max_lyapunov"))
    if name == "fig2d":
        return spec(
            base=base.replace(kappa_a=0.2 * base.kappa_m, G_eff=0.4 * wb),
            axes=(Axis("gma_over_G", 0.5, 5.0, 101),),
            outputs=("max_lyapunov", "stable"))
    if name in ("fig3a", "fig3b", "fig3c"):
        pair = pair_by_panel[name[-1]]
        return spec(
            base=base,
            axes=(Axis("G_over_omega_b", 0.0, 0.5, 101),),
            outputs=(f"E_N({pair})", "stable"),
            series=(gain, loss))
    if name == "fig3d":
        return spec(
            base=base.replace(G_eff=0.1 * wb),
            axes=(Axis("kappa_a_over_kappa_m", 0.0, 0.95, 96),),
            outputs=("E_N(am)", "stable"))
    if name in ("fig4a", "fig4b", "fig4c"):
        pair = pair_by_panel[name[-1]]
        return spec(
            base=base.replace(kappa_a=0.2 * base.kappa_m),
            axes=(Axis("delta_over_omega_b", -2.0, 0.0, 101),
                  Axis("G_over_gma", 0.0, 0.5, 101)),
            outputs=(f"E_N({pair})", "stable"))
    if name == "fig4d":
        return spec(
            base=base,
            axes=(Axis("G_over_gma", 0.0, 0.5, 101),
                  Axis("kappa_a_over_kappa_m", 0.0, 0.95, 96)),
            outputs=("E_N(am)", "stable"))
    if name == "fig5":
        return spec(
            base=base,
            axes=(Axis("G_over_omega_b", 0.0, 0.5, 101),),
            outputs=("S(m->b)", "S(a->b)", "S(b->m)", "S(b->a)", "stable"),
            series=(gain, loss))
    if name == "fig6a":
        return spec(
            base=base.replace(kappa_a=0.2 * base.kappa_m, G_eff=0.25 * wb),
            axes=(Axis("temperature", 0.0, 250 * _MK, 251),),
            outputs=("E_N(am)", "E_N(bm)", "E_N(ab)", "S(m->b)", "S(a->b)",
                     "stable"))
    if name == "fig6b":
        return spec(
            base=base.replace(G_eff=0.25 * wb),
            axes=(Axis("temperature", 0.0, 250 * _MK, 251),),
            outputs=("E_N(am)", "stable"),
            series=(gain, loss))
    raise ParameterError(f"unknown figure preset {name!r}; valid: {FIGURE_NAMES}")
