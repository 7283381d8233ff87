"""Grid sweeps, figure presets and the vanishing-temperature search."""

from __future__ import annotations

import functools
import io
import json
import math
from dataclasses import dataclass, fields

import numpy as np

from . import measures as _measures
from . import model as _model
from .config import build_params, default_config
from .dynamics import (check_gain_noise, diffusion_matrices, drift_matrices,
                       equal_groups, stability_batch)
from .errors import (BracketInvalidError, MagnomechError, ParameterError,
                     UnstableSystemError, alive, no_failures, raise_failure,
                     record_failures, store_failure)
from .model import SystemParams, parameter_violations, pt_classify
from .steady_state import working_point_batch

#: Absolute tolerance (K) of the vanishing-temperature bisection.
VANISHING_TEMPERATURE_TOL = 1e-4

#: Bisection steps whose midpoints are solved together as one batch. A batch
#: of a few points costs little more than one point, but each level doubles
#: the points, and the deepest ones are mostly off the path taken.
VANISHING_TREE_DEPTH = 3

#: Grid points evaluated together as one stack of arrays when an output
#: needs the covariance matrix: the (N, 36, 36) Lyapunov systems grow peak
#: memory with N, and larger batches of them run no faster.
BATCH_SIZE = 64

#: Grid points per batch when every output is read off the stability
#: verdict. Such a batch holds only (N, 6, 6) stacks, and at BATCH_SIZE its
#: per-batch setup took a quarter to a third of a stability map's compute.
STABILITY_BATCH_SIZE = 1024

#: Rows that ``SweepResult.to_csv`` formats together, one column at a time.
#: The chunk's columns and cells are the writer's only transient lists.
CSV_CHUNK_ROWS = 1024

_NUMERIC_FIELDS = tuple(f.name for f in fields(SystemParams))

#: Sweep parameters with their own rule or CSV column: name -> (fields set,
#: reference field, CSV column). Each field is set to value * reference, or
#: to the value itself when there is no reference. Any other sweep parameter
#: is a SystemParams field, in a column "<field>_rad_s".
_DERIVED_PARAMS = {
    "G_over_omega_b": (("G_eff",), "omega_b", "G/omega_b"),
    "G_over_gma": (("G_eff",), "g_ma", "G/g_ma"),
    "gma_over_omega_b": (("g_ma",), "omega_b", "g_ma/omega_b"),
    "gma_over_G": (("g_ma",), "G_eff", "g_ma/G"),
    "kappa_a_over_kappa_m": (("kappa_a",), "kappa_m", "kappa_a/kappa_m"),
    "delta_over_omega_b": (("delta_a", "delta_m_eff"), "omega_b", "Delta/omega_b"),
    "temperature": (("temperature",), None, "T_K"),
}

#: Sweep outputs: name -> (kind, arguments, CSV column). Kinds: "report"
#: (read off the stability verdict), "cm" (a certificate of the covariance
#: matrix), and "pair" and "steering" (a PairBatch attribute of one pair).
_OUTPUTS = {
    "stable": ("report", (), "stable"),
    "max_lyapunov": ("report", (), "max_lyapunov_rad_s"),
    "pt_phase": ("report", (), "pt_phase"),
    "residual": ("cm", (), "residual"),
    "physicality_margin": ("cm", (), "physicality_margin"),
    **{f"E_N({p})": ("pair", (p, "e_n"), f"E_N_{p}_nats")
       for p in _measures.PAIRS},
    **{f"eta_minus({p})": ("pair", (p, "eta_minus"), f"eta_minus_{p}")
       for p in _measures.PAIRS},
    **{f"S({s}->{t})": ("steering", (p, attribute), f"S_{s}_to_{t}_nats")
       for p in _measures.PAIRS
       for s, t, attribute in ((*p, "s_12"), (*p[::-1], "s_21"))},
}


def _check_parameter_name(name: str) -> None:
    if name not in _NUMERIC_FIELDS and name not in _DERIVED_PARAMS:
        raise ParameterError(
            f"unknown sweep parameter {name!r}; valid: "
            f"{sorted({*_NUMERIC_FIELDS, *_DERIVED_PARAMS})}")


def _check_outputs(outputs: tuple[str, ...]) -> None:
    for output in outputs:
        if output not in _OUTPUTS:
            raise ParameterError(f"unknown sweep output {output!r}")


def _parameter_changes(values, name: str, value) -> dict:
    """Fields changed by one swept parameter, from the current ``values``
    (a SystemParams' fields or the columns of a batch)."""
    _check_parameter_name(name)
    targets, ref, _ = _DERIVED_PARAMS.get(name, ((name,), None, None))
    if ref is not None:
        if values[ref] is None:
            raise ParameterError(f"sweep parameter {name} needs {ref} to be set")
        value = value * values[ref]
    return dict.fromkeys(targets, value)


def apply_parameter(params: SystemParams, name: str, value: float) -> SystemParams:
    """Return a copy of ``params`` with one swept parameter applied."""
    return params.replace(**_parameter_changes(vars(params), name, value))


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
        check_gain_noise(self.gain_noise)
        names = [axis.name for axis in self.axes]
        names += [name for series in self.series for name, _ in series.overrides]
        for name in names:
            _check_parameter_name(name)
        object.__setattr__(self, "outputs", tuple(self.outputs))
        _check_outputs(self.outputs)

    def grid(self) -> np.ndarray:
        """Grid points (one row each, one column per axis), first axis outermost."""
        mesh = np.meshgrid(*(axis.values() for axis in self.axes), indexing="ij")
        return np.stack(mesh, axis=-1).reshape(-1, len(self.axes))


def _check_columns(columns: dict, failures: np.ndarray) -> None:
    """Record, at each invalid point, the first SystemParams rule it breaks."""
    for violated, message in parameter_violations(columns):
        if np.count_nonzero(violated):
            record_failures(failures, np.broadcast_to(violated, failures.shape),
                            lambda k: ParameterError(message))


def _working_points(columns: dict, failures: np.ndarray
                    ) -> tuple[np.ndarray, np.ndarray]:
    """Effective coupling and magnon detuning per point.

    Preset points read both off their columns. The drive-mode points of a
    batch are solved together by :func:`working_point_batch`; failed points
    read 0.
    """
    if columns["G_eff"] is not None and columns["delta_m_eff"] is not None:
        return columns["G_eff"], columns["delta_m_eff"]
    with np.errstate(all="ignore"):  # failed points may hold any value
        _, _, delta_m_eff, g_eff, _ = working_point_batch(columns, failures)
    return g_eff, delta_m_eff


def _drift_groups(a: np.ndarray, failures: np.ndarray) -> np.ndarray | None:
    """A label per point, equal for live points with bit-identical drifts
    (-1 at failed points), or None when no two live points share a drift."""
    live = np.flatnonzero(alive(failures))
    first, group = equal_groups(a.reshape(len(a), 36), live)
    if len(first) == len(live):
        return None
    groups = np.full(len(a), -1)
    groups[live] = group
    return groups


def _diffusions(columns: dict, rows: np.ndarray, gain_noise: str,
                failures: np.ndarray) -> np.ndarray:
    """Diffusion matrices (len(rows), 6, 6) at the given points."""
    omegas = [columns[name].tolist() for name in ("omega_a", "omega_m", "omega_b")]
    temperatures = columns["temperature"].tolist()
    occupations = []
    for i, k in enumerate(rows.tolist()):
        try:
            occupations.append([_model.thermal_occupation(omega[k], temperatures[k])
                                for omega in omegas])
        except MagnomechError as exc:
            store_failure(failures, i, exc)
            occupations.append([0.0, 0.0, 0.0])
    with np.errstate(over="ignore"):  # the Lyapunov solve fails such points
        return diffusion_matrices(
            columns["kappa_a"][rows], columns["kappa_m"][rows],
            columns["gamma_b"][rows], *np.array(occupations).T, gain_noise)


@functools.lru_cache(maxsize=1024)
def _pair_plan(outputs: tuple[str, ...]) -> tuple[tuple, tuple, tuple]:
    """The pairs a PairBatch needs for ``outputs``, those of them to
    cross-check, and the pair measures in output order as (position,
    PairBatch attribute, column in pairs, steering): a steering measure is
    stopped only by a steering failure."""
    measures = [(j, *args, kind == "steering")
                for j, (kind, args, _) in enumerate(map(_OUTPUTS.get, outputs))
                if kind in ("pair", "steering")]
    pairs = tuple(dict.fromkeys(pair for _, pair, _, _ in measures))
    checked = tuple(pair for _, pair, _, steering in measures if not steering)
    return pairs, checked, tuple((j, name, pairs.index(pair), steering)
                                 for j, pair, name, steering in measures)


def _evaluate(columns: dict, failures: np.ndarray, outputs: tuple[str, ...],
              gain_noise: str) -> list[list]:
    """Rows of output values plus the error code, one per point.

    Working point -> drift -> stability -> diffusion -> Lyapunov covariance
    -> measures. ``columns`` maps each SystemParams field to None or an
    N-vector. Points already failed are skipped; each stage records the
    error that stops a point there, and a point's stability verdict is
    reported even if a later stage fails. Covariance matrices are solved,
    when an output needs one, at the stable points: unstable points yield
    None for every covariance-based output (sentinel), never zeros. Measures
    are taken in output order; the first one that fails at a point sets its
    error and leaves the later measures None.
    """
    check_gain_noise(gain_noise)
    _check_outputs(outputs)
    kinds = [_OUTPUTS[out][0] for out in outputs]
    g_eff, delta_m_eff = _working_points(columns, failures)
    a, finite = drift_matrices(
        columns["delta_a"], delta_m_eff, columns["kappa_a"], columns["kappa_m"],
        columns["gamma_b"], columns["omega_b"], columns["g_ma"], g_eff)
    record_failures(failures, ~finite, lambda k: ParameterError(
        "quadrature_drift: non-finite input"))
    covariance = any(kind != "report" for kind in kinds)
    groups = _drift_groups(a, failures) if covariance and len(a) > 1 else None
    eigenvalues, max_lyapunov, stable = stability_batch(a, failures, groups)
    reported = alive(failures)
    solved = np.flatnonzero(reported & stable & covariance)
    if solved.size:
        sub_failures = failures[solved]
        d = _diffusions(columns, solved, gain_noise, sub_failures)
        v, residual = _measures.lyapunov_batch(
            a[solved], d, eigenvalues[solved], sub_failures,
            None if groups is None else groups[solved])
        failures[solved] = sub_failures
        ok = alive(sub_failures)
        solved, v, residual = solved[ok], v[ok], residual[ok]
    rows = [[None] * len(outputs) for _ in range(len(failures))]
    reported = np.flatnonzero(reported).tolist()
    solved = solved.tolist()
    for j, (out, kind) in enumerate(zip(outputs, kinds)):
        if out == "pt_phase":
            g_ma, kappa_a, kappa_m = (columns[name].tolist()
                                      for name in ("g_ma", "kappa_a", "kappa_m"))
            for k in reported:
                rows[k][j] = pt_classify(g_ma[k], kappa_a[k], kappa_m[k]).tag
        elif kind == "report":
            values = (stable.astype(int) if out == "stable"
                      else max_lyapunov).tolist()
            for k in reported:
                rows[k][j] = values[k]
        elif kind == "cm" and solved:
            values = (residual if out == "residual"
                      else _measures.physicality_margins(v))
            for k, value in zip(solved, values.tolist()):
                rows[k][j] = value
    pairs, checked, measures = _pair_plan(outputs)
    if solved and measures:
        batch = _measures.PairBatch(v, pairs, checked=checked)
        tables = {name: getattr(batch, name).tolist() for _, name, _, _ in measures}
        stops = (batch.failures.tolist(), batch.steering_failures.tolist())
        for i, k in enumerate(solved):
            row = rows[k]
            for j, name, col, steering in measures:
                failure = stops[steering][i][col]
                if failure is not None:  # stops the point's later measures
                    failures[k] = failure
                    break
                row[j] = tables[name][i][col]
    for row, failure in zip(rows, failures):
        row.append(failure.code if failure is not None else "")
    return rows


def evaluate_point(params: SystemParams, outputs: tuple[str, ...],
                   gain_noise: str = "vacuum") -> dict:
    """Evaluate all requested outputs at a single parameter point.

    Unstable points yield None for every covariance-based output (sentinel),
    never zeros. Per-point failures are reported in the "error" entry.
    """
    try:
        *values, error = _evaluate(params.columns(), no_failures(1),
                                   tuple(outputs), gain_noise)[0]
    except ParameterError as exc:  # an unknown output or gain_noise
        values, error = [None] * len(outputs), exc.code
    return {**dict(zip(outputs, values)), "error": error}


def _evaluate_batch(spec: "SweepSpec", points: np.ndarray) -> list[list]:
    """Rows of a batch of grid points: axis values, then each series' cells."""
    rows = points.tolist()
    n = len(points)
    for series in spec.series:
        columns, failures = spec.base.columns(n), no_failures(n)
        steps = [(name, np.full(n, value)) for name, value in series.overrides]
        steps += [(axis.name, points[:, i]) for i, axis in enumerate(spec.axes)]
        with np.errstate(all="ignore"):
            for name, value in steps:
                try:
                    columns.update(_parameter_changes(columns, name, value))
                except ParameterError as exc:
                    for k in np.flatnonzero(alive(failures)):
                        store_failure(failures, k, exc)
                    break
                _check_columns(columns, failures)
        for row, cells in zip(rows, _evaluate(columns, failures, spec.outputs,
                                              spec.gain_noise)):
            row.extend(cells)
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
        digits for floats, empty cell for sentinel (unstable) values.

        Cells are formatted a column at a time, CSV_CHUNK_ROWS rows at once.
        An axis column repeats a few values across the grid, so each of its
        distinct values is formatted once.
        """
        n_axes = len(self.spec.axes)
        formatted = [{} for _ in range(n_axes)]
        buf = io.StringIO()
        buf.write(",".join(self.columns) + "\n")
        for start in range(0, len(self.rows), CSV_CHUNK_ROWS):
            chunk = zip(*self.rows[start:start + CSV_CHUNK_ROWS], strict=True)
            cells = [_format_axis_cells(values, formatted[j]) if j < n_axes
                     else _format_cells(values)
                     for j, values in enumerate(chunk)]
            buf.write("\n".join(map(",".join, zip(*cells))) + "\n")
        return buf.getvalue()

    def to_json(self) -> str:
        objs = [dict(zip(self.columns, row)) for row in self.rows]
        return json.dumps(objs, indent=None, separators=(",", ":")) + "\n"


def _format_cells(values) -> list[str]:
    """CSV cells: 12 significant digits for a float, empty for None, str()
    of anything else."""
    return [f"{v:.12g}" if isinstance(v, float) else "" if v is None else str(v)
            for v in values]


def _format_axis_cells(values, formatted: dict) -> list[str]:
    """:func:`_format_cells` of a column whose values repeat, through
    ``formatted``: the cell of each nonzero float seen so far. A zero
    bypasses it (0.0 and -0.0 are one key but two cells), and so do NaN,
    which misses every key, and anything that is not a float. The cache is
    emptied once it holds more than CSV_CHUNK_ROWS cells."""
    if len(formatted) > CSV_CHUNK_ROWS:
        formatted.clear()
    cells = []
    for v in values:
        cell = formatted.get(v) if type(v) is float and v else None
        if cell is None:
            [cell] = _format_cells((v,))
            if type(v) is float and v and v == v:
                formatted[v] = cell
        cells.append(cell)
    return cells


def _column_names(spec: SweepSpec) -> dict[str, str]:
    """Undecorated column of each axis and output of ``spec``, and the error."""
    names = {axis.name: _DERIVED_PARAMS[axis.name][2]
             if axis.name in _DERIVED_PARAMS else f"{axis.name}_rad_s"
             for axis in spec.axes}
    names.update((out, _OUTPUTS[out][2]) for out in spec.outputs)
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
    """Evaluate the grid in batches of BATCH_SIZE points, or of
    STABILITY_BATCH_SIZE points when every output is read off the stability
    verdict.

    Up to ``jobs`` worker processes, never more than there are batches,
    share the batches; results are identical for any worker count.
    """
    if jobs < 1:
        raise ParameterError("jobs must be >= 1")
    grid = spec.grid()
    size = (STABILITY_BATCH_SIZE
            if all(_OUTPUTS[out][0] == "report" for out in spec.outputs)
            else BATCH_SIZE)
    batches = [grid[s:s + size] for s in range(0, len(grid), size)]
    workers = min(jobs, len(batches))
    if workers == 1:
        parts = [_evaluate_batch(spec, points) for points in batches]
    else:
        # Imported here: it loads multiprocessing, which one process never uses.
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=workers) as pool:
            parts = list(pool.map(_evaluate_batch, [spec] * len(batches), batches,
                                  chunksize=math.ceil(len(batches) / (4 * workers))))
    rows = [row for part in parts for row in part]
    return SweepResult(spec=spec, columns=_result_columns(spec), rows=rows)


def vanishing_temperature(base: SystemParams, pair: str, t_lo: float,
                          t_hi: float, gain_noise: str = "vacuum") -> float:
    """Bisect for the temperature where the pair's entanglement reaches zero.

    Requires E_N > 0 at ``t_lo`` and E_N = 0 at ``t_hi`` with the system
    stable across the bracket; returns the midpoint of the final bracket,
    within VANISHING_TEMPERATURE_TOL kelvin.

    The midpoints of the next VANISHING_TREE_DEPTH bisection steps,
    whichever way each step goes, are solved as one batch: the first such
    tree together with the two ends. The search walks the path the
    one-at-a-time bisection takes through them, so it returns the same
    temperature, and only a point on that path can raise. The points of a
    search share one drift, so each batch factors one Lyapunov system.
    """
    outputs = ("stable", "max_lyapunov", f"E_N({pair})")

    def solve(temperatures: list[float]):
        """E_N(k) at the k-th temperature, which raises that point's failure."""
        n = len(temperatures)
        columns, failures = base.columns(n), no_failures(n)
        columns["temperature"] = np.array(temperatures)
        _check_columns(columns, failures)
        rows = _evaluate(columns, failures, outputs, gain_noise)

        def e_n(k: int) -> float:
            raise_failure(failures[k:k + 1])
            stable, max_lyapunov, value, _ = rows[k]
            _measures.check_stable(max_lyapunov, bool(stable))
            return value
        return e_n

    def tree(lo: float, hi: float) -> list[float]:
        """Heap-ordered midpoints: node k bisects brackets[k], and nodes
        2k+1 and 2k+2 bisect its lower and upper half."""
        brackets, mids = [(lo, hi)], []
        for a, b in brackets:
            mids.append(0.5 * (a + b))
            if len(brackets) < 2**VANISHING_TREE_DEPTH - 1:
                brackets += [(a, mids[-1]), (mids[-1], b)]
        return mids

    if not t_lo < t_hi:
        raise BracketInvalidError("need t_lo < t_hi")
    mids = tree(t_lo, t_hi)
    e_n = solve([*mids, t_lo, t_hi])
    try:
        lo_val, hi_val = e_n(len(mids)), e_n(len(mids) + 1)
    except UnstableSystemError as exc:
        raise BracketInvalidError(f"system unstable inside bracket: {exc}") from exc
    if lo_val <= 0.0:
        raise BracketInvalidError(f"E_N({pair}) = 0 already at {t_lo} K")
    if hi_val > 0.0:
        raise BracketInvalidError(f"E_N({pair}) = {hi_val:.3g} > 0 still at {t_hi} K")
    lo, hi, node = t_lo, t_hi, 0
    while hi - lo > VANISHING_TEMPERATURE_TOL:
        if node >= len(mids):
            mids, node = tree(lo, hi), 0
            e_n = solve(mids)
        if e_n(node) > 0.0:
            lo, node = mids[node], 2 * node + 2
        else:
            hi, node = mids[node], 2 * node + 1
    return 0.5 * (lo + hi)


# --- figure presets ---------------------------------------------------------

_GAIN, _LOSS = ("kappa_a_over_kappa_m", 0.2), ("kappa_a_over_kappa_m", -0.2)
_GAIN_LOSS = (Series("gain", (_GAIN,)), Series("loss", (_LOSS,)))
_G_AXIS = Axis("G_over_omega_b", 0.0, 0.5, 101)
_T_AXIS = Axis("temperature", 0.0, 0.25, 251)
_COUPLING_AXES = (Axis("gma_over_omega_b", 0.0, 1.2, 101),
                  Axis("G_over_omega_b", 0.0, 0.6, 101))

#: Figure presets: name -> (base changes, axes, outputs, whether the preset
#: has a gain and a loss series). Base changes and series overrides are
#: sweep parameters, applied in order.
_FIGURES = {
    "fig2a": ((_LOSS,), _COUPLING_AXES, ("stable", "max_lyapunov"), False),
    "fig2b": ((_GAIN,), _COUPLING_AXES, ("stable", "max_lyapunov"), False),
    "fig2c": ((("gma_over_omega_b", 0.5),),
              (Axis("kappa_a_over_kappa_m", 0.0, 1.0, 101),
               Axis("G_over_omega_b", 0.0, 0.6, 101)),
              ("stable", "max_lyapunov"), False),
    "fig2d": ((_GAIN, ("G_over_omega_b", 0.4)), (Axis("gma_over_G", 0.5, 5.0, 101),),
              ("max_lyapunov", "stable"), False),
    **{f"fig3{panel}": ((), (_G_AXIS,), (f"E_N({pair})", "stable"), True)
       for panel, pair in zip("abc", _measures.PAIRS)},
    "fig3d": ((("G_over_omega_b", 0.1),),
              (Axis("kappa_a_over_kappa_m", 0.0, 0.95, 96),),
              ("E_N(am)", "stable"), False),
    **{f"fig4{panel}": ((_GAIN,), (Axis("delta_over_omega_b", -2.0, 0.0, 101),
                                   Axis("G_over_gma", 0.0, 0.5, 101)),
                        (f"E_N({pair})", "stable"), False)
       for panel, pair in zip("abc", _measures.PAIRS)},
    "fig4d": ((), (Axis("G_over_gma", 0.0, 0.5, 101),
                   Axis("kappa_a_over_kappa_m", 0.0, 0.95, 96)),
              ("E_N(am)", "stable"), False),
    "fig5": ((), (_G_AXIS,), ("S(m->b)", "S(a->b)", "S(b->m)", "S(b->a)", "stable"),
             True),
    "fig6a": ((_GAIN, ("G_over_omega_b", 0.25)), (_T_AXIS,),
              ("E_N(am)", "E_N(bm)", "E_N(ab)", "S(m->b)", "S(a->b)", "stable"),
              False),
    "fig6b": ((("G_over_omega_b", 0.25),), (_T_AXIS,), ("E_N(am)", "stable"), True),
}

FIGURE_NAMES = tuple(_FIGURES)


def default_params() -> SystemParams:
    """Shared operating point of the figure presets: the bundled config."""
    return build_params(default_config())


def figure_preset(name: str, gain_noise: str = "vacuum",
                  base: SystemParams | None = None) -> SweepSpec:
    """Fully populated sweep specification for one of the figure data sets.

    Each preset varies ``base``, by default :func:`default_params`.
    """
    if name not in _FIGURES:
        raise ParameterError(f"unknown figure preset {name!r}; valid: {FIGURE_NAMES}")
    changes, axes, outputs, gain_loss = _FIGURES[name]
    base = default_params() if base is None else base
    for change in changes:
        base = apply_parameter(base, *change)
    return SweepSpec(base=base, axes=axes, outputs=outputs,
                     series=_GAIN_LOSS if gain_loss else (Series(),),
                     gain_noise=gain_noise)
