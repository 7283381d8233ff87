"""Grid sweeps, figure presets and the vanishing-temperature search.

A sweep's items (its batches and series) run on one thread per usable core,
at most BATCH_THREADS, the calling thread included (:func:`map_batches`);
each stacked LAPACK call runs whole on its item's thread. NumPy's
linear-algebra functions solve each matrix of a stack on its own, so every
item gets the same bits on any number of threads. They do not release the
GIL for every stack: with numpy 2.4.6, eigvals on 40-80 real 6x6 matrices,
or on up to 124 complex 4x4 ones, held it (README).
"""

from __future__ import annotations

import contextvars
import functools
import itertools
import json
import math
import numbers
import os
import threading
from dataclasses import dataclass

import numpy as np

from . import measures as _measures
from .config import build_params, default_config
from .dynamics import (check_gain_noise, diffusion_batch, diffusion_matrices,
                       drift_matrices, stability_batch)
from .errors import (BracketInvalidError, MagnomechError, ParameterError,
                     UnstableSystemError, alive, no_failures, raise_failure,
                     record_failures)
from .model import (ANGULAR_FIELDS, SystemParams, hbar, k_B,
                    parameter_violations, pt_classify)
from .steady_state import working_point_batch

#: Absolute tolerance (K) of the vanishing-temperature bisection.
VANISHING_TEMPERATURE_TOL = 1e-4

#: Bisection levels whose midpoints the vanishing-temperature search
#: evaluates as one batch: 7 temperatures per round. The first adds both
#: ends and the walk's midpoints below them toward a predicted crossing.
_SEARCH_LEVELS = 3

#: Temperatures per pass of the vanishing-temperature search's prediction.
_PREDICTION_POINTS = 17

#: Most grid points evaluated together as one stack of arrays, whatever the
#: outputs. A covariance point adds a 36x36 Lyapunov system, about 10 KB, to
#: the batch's (N, 36, 36) stack: a full batch of them raises peak memory by
#: about 14 MB (fig4b, fig4d).
BATCH_SIZE = 1024

#: Most threads of a map_batches call. Each keeps one batch in flight, and
#: two threads are all that was measured (a 2-core VM).
BATCH_THREADS = 2

#: Sweep parameters: name -> (fields set, reference field, CSV column). Each
#: field is set to value * reference, or to the value itself when there is
#: no reference. Every SystemParams field is one.
_SWEEP_PARAMS = {
    **{field: ((field,), None, f"{field}_rad_s") for field in ANGULAR_FIELDS},
    "temperature": (("temperature",), None, "T_K"),
    "G_over_omega_b": (("G_eff",), "omega_b", "G/omega_b"),
    "G_over_gma": (("G_eff",), "g_ma", "G/g_ma"),
    "gma_over_omega_b": (("g_ma",), "omega_b", "g_ma/omega_b"),
    "gma_over_G": (("g_ma",), "G_eff", "g_ma/G"),
    "kappa_a_over_kappa_m": (("kappa_a",), "kappa_m", "kappa_a/kappa_m"),
    "delta_over_omega_b": (("delta_a", "delta_m_eff"), "omega_b", "Delta/omega_b"),
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


def _sweep_parameter(name: str) -> tuple:
    """The (fields set, reference field, CSV column) of sweep parameter ``name``."""
    if name not in _SWEEP_PARAMS:
        raise ParameterError(f"unknown sweep parameter {name!r}; valid: "
                             f"{sorted(_SWEEP_PARAMS)}")
    return _SWEEP_PARAMS[name]


def _output_names(outputs) -> tuple[str, ...]:
    """``outputs`` as a tuple; a bare str would be read as its letters."""
    if isinstance(outputs, str):
        raise ParameterError(
            f"outputs must be a sequence of output names, got the str {outputs!r}")
    return tuple(outputs)


def _check_outputs(outputs: tuple[str, ...]) -> None:
    for output in outputs:
        if output not in _OUTPUTS:
            raise ParameterError(f"unknown sweep output {output!r}")


@np.errstate(all="ignore")  # an overflowing product fails its point's check
def _parameter_changes(values, name: str, value) -> dict:
    """Fields changed by one swept parameter, from the current ``values``
    (a SystemParams' fields or the columns of a batch)."""
    targets, ref, _ = _sweep_parameter(name)
    if ref is not None:
        if values[ref] is None:
            raise ParameterError(f"sweep parameter {name} needs {ref} to be set")
        value = value * values[ref]
    return dict.fromkeys(targets, value)


def apply_parameter(params: SystemParams, name: str, value: float) -> SystemParams:
    """Return a copy of ``params`` with one swept parameter applied."""
    _sweep_parameter(name)
    if not isinstance(value, numbers.Real):
        raise ParameterError(
            f"sweep parameter {name!r} needs a real number, got {value!r}")
    return params.replace(**_parameter_changes(vars(params), name, value))


@dataclass(frozen=True)
class Axis:
    name: str
    lo: float
    hi: float
    count: int

    def __post_init__(self) -> None:
        if not isinstance(self.count, (int, np.integer)) or self.count < 2:
            raise ParameterError(
                f"axis count must be an integer >= 2, got {self.count!r}")
        if not (isinstance(self.lo, numbers.Real) and isinstance(self.hi, numbers.Real)):
            raise ParameterError(
                f"axis bounds must be real numbers, got {self.lo!r} and {self.hi!r}")
        if not self.lo < self.hi:
            raise ParameterError("axis requires lo < hi")
        if not math.isfinite(self.hi - self.lo):
            raise ParameterError("axis bounds and their span must be finite")

    @np.errstate(over="ignore")  # only the last point overflows, and is set to hi
    def values(self) -> np.ndarray:
        return np.linspace(self.lo, self.hi, self.count)


@dataclass(frozen=True)
class Series:
    """One labeled curve: parameter overrides applied on top of the base."""

    label: str = ""
    overrides: tuple[tuple[str, float], ...] = ()

    def __post_init__(self) -> None:
        if not isinstance(self.label, str):  # a column is named by str(label)
            raise ParameterError(f"a series label must be a str, got {self.label!r}")


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
        labels = [series.label for series in self.series]
        if not labels or len(set(labels)) < len(labels):
            raise ParameterError(
                f"a sweep needs series with distinct labels, got {labels}")
        check_gain_noise(self.gain_noise)
        steps = [(f"series {series.label!r} override", name, value)
                 for series in self.series for name, value in series.overrides]
        for name in [axis.name for axis in self.axes] + [step[1] for step in steps]:
            _sweep_parameter(name)
        # An axis is applied after the series' overrides and the earlier
        # axis: it may not overwrite a field one of them set, nor change the
        # reference one of them read its value from.
        swept = set().union(*(_SWEEP_PARAMS[axis.name][0] for axis in self.axes))
        for axis in self.axes:
            fields = set(_SWEEP_PARAMS[axis.name][0])
            for step, name, value in steps:
                if not isinstance(value, numbers.Real):
                    raise ParameterError(
                        f"{step} {name!r} needs a real number, got {value!r}")
                targets, ref, _ = _SWEEP_PARAMS[name]
                clash = fields.intersection(targets)
                if clash and step == "axis":
                    raise ParameterError(f"axes {name!r} and {axis.name!r} set "
                                         f"the same field {sorted(clash)}")
                if clash:
                    raise ParameterError(f"{step} {name!r} sets the field "
                                         f"{sorted(swept.intersection(targets))} of an axis")
                if ref in fields:
                    raise ParameterError(f"axis {axis.name!r} sets the reference "
                                         f"{ref!r} of the earlier {step} {name!r}")
            steps.append(("axis", axis.name, axis.lo))
        object.__setattr__(self, "outputs", _output_names(self.outputs))
        _check_outputs(self.outputs)
        if len(set(self.outputs)) < len(self.outputs):
            raise ParameterError(
                f"a sweep needs distinct outputs, got {list(self.outputs)}")

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


def _drifts(columns: dict, failures: np.ndarray) -> np.ndarray:
    """Drift matrices (N, 6, 6); a failed point's drift is unspecified."""
    _, _, delta_m_eff, g_eff, _ = working_point_batch(columns, failures)
    return drift_matrices(
        columns["delta_a"], delta_m_eff, columns["kappa_a"], columns["kappa_m"],
        columns["gamma_b"], columns["omega_b"], columns["g_ma"], g_eff)


def _shared_drift(a: np.ndarray, failures: np.ndarray) -> tuple:
    """Verdict of a drift (1, 6, 6), then channel_covariances if it is stable."""
    eigenvalues, max_lyapunov, stable = stability_batch(a, failures)
    channels = (_measures.channel_covariances(a[0], eigenvalues[0])
                if failures[0] is None and stable[0] else None)
    return max_lyapunov, stable, channels


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


def _cells(n: int, points: np.ndarray, values) -> list:
    """A column of n cells: ``values`` at ``points``, None elsewhere."""
    if len(points) == n:
        return values.tolist() if isinstance(values, np.ndarray) else values
    column = np.full(n, None, dtype=object)
    column[points] = values  # NumPy floats and ints become Python ones
    return column.tolist()


def _evaluate(columns: dict, failures: np.ndarray, outputs: tuple[str, ...],
              gain_noise: str) -> list[list]:
    """One column per output, then the column of error codes, one cell per
    point.

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
    a = _drifts(columns, failures)
    covariance = any(kind != "report" for kind in kinds)
    live = np.flatnonzero(alive(failures)) if covariance and len(a) > 1 else []
    # A covariance batch whose live points all share one drift (a
    # temperature axis) solves that drift once.
    shared = len(live) > 1 and bool((a[live] == a[live[0]]).all())
    if shared:  # as a batch of its first live point, failure and all
        first = failures[live[:1]]
        *verdict, channels = _shared_drift(a[live[:1]], first)
        record_failures(failures, np.repeat(~alive(first), len(a)),
                        lambda k: type(first[0])(*first[0].args))
        max_lyapunov, stable = (np.repeat(x, len(a)) for x in verdict)
    else:
        eigenvalues, max_lyapunov, stable = stability_batch(a, failures)
    reported = alive(failures)
    solved = np.flatnonzero(reported & stable & covariance)
    if solved.size:
        sub_failures = failures[solved]
        d = diffusion_batch(columns, solved, gain_noise, sub_failures)
        if shared:  # a combination's residual is taken only if asked for
            v = _measures.combine_channels(channels, d, sub_failures)
            residual = (_measures.lyapunov_residuals(a[solved], v, d)
                        if "residual" in outputs else np.full(len(v), np.nan))
        else:
            v, residual = _measures.lyapunov_batch(a[solved], d, eigenvalues[solved],
                                                   sub_failures)
        failures[solved] = sub_failures
        ok = alive(sub_failures)
        solved, v, residual = solved[ok], v[ok], residual[ok]
    n = len(failures)
    reported = np.flatnonzero(reported)
    cells = [[None] * n for _ in outputs]
    for j, (out, kind) in enumerate(zip(outputs, kinds)):
        if out == "pt_phase":
            g_ma, kappa_a, kappa_m = (columns[name][reported].tolist()
                                      for name in ("g_ma", "kappa_a", "kappa_m"))
            cells[j] = _cells(n, reported, [pt_classify(*point).tag for point
                                            in zip(g_ma, kappa_a, kappa_m)])
        elif kind == "report":
            values = stable.astype(int) if out == "stable" else max_lyapunov
            cells[j] = _cells(n, reported, values[reported])
        elif kind == "cm" and solved.size:
            cells[j] = _cells(n, solved, residual if out == "residual"
                              else _measures.physicality_margins(v))
    pairs, checked, measures = _pair_plan(outputs)
    if solved.size and measures:
        batch = _measures.PairBatch(v, pairs, checked=checked)
        tables = {name: getattr(batch, name).tolist() for _, name, _, _ in measures}
        stops = (batch.failures.tolist(), batch.steering_failures.tolist())
        for i, k in enumerate(solved.tolist()):
            for j, name, col, steering in measures:
                failure = stops[steering][i][col]
                if failure is not None:  # stops the point's later measures
                    failures[k] = failure
                    break
                cells[j][k] = tables[name][i][col]
    cells.append([failure.code if failure is not None else ""
                  for failure in failures.tolist()])
    return cells


def evaluate_point(params: SystemParams, outputs: tuple[str, ...],
                   gain_noise: str = "vacuum") -> dict:
    """Evaluate all requested outputs at a single parameter point.

    Unstable points yield None for every covariance-based output (sentinel),
    never zeros. Per-point failures are reported in the "error" entry; a
    bare str of outputs raises ParameterError.
    """
    outputs = _output_names(outputs)
    try:
        *values, error = (cells[0] for cells in _evaluate(
            params.columns(), no_failures(1), outputs, gain_noise))
    except ParameterError as exc:  # an unknown output or gain_noise
        values, error = [None] * len(outputs), exc.code
    return {**dict(zip(outputs, values)), "error": error}


def _series_cells(spec: "SweepSpec", points: np.ndarray,
                  series: Series) -> list[list]:
    """One series' columns at a batch of grid points, the errors last."""
    n = len(points)
    columns, failures = spec.base.columns(n), no_failures(n)
    steps = [(name, np.full(n, value)) for name, value in series.overrides]
    steps += [(axis.name, points[:, i]) for i, axis in enumerate(spec.axes)]
    for name, value in steps:
        try:
            columns.update(_parameter_changes(columns, name, value))
        except ParameterError as exc:
            record_failures(failures, alive(failures),
                            lambda k: type(exc)(*exc.args))
            break
    _check_columns(columns, failures)
    return _evaluate(columns, failures, spec.outputs, spec.gain_noise)


@dataclass
class SweepResult:
    """A sweep's cells by column: ``cells`` holds one list per column after
    the axes, one cell per grid point in ``spec.grid()`` order. The axis
    cells are ``spec``'s grid, and ``rows`` is built on each access."""

    spec: SweepSpec
    columns: list[str]
    cells: list[list]

    def _columns(self) -> list[list]:
        """Every column's cells, the axes' from the grid first."""
        return [*self.spec.grid().T.tolist(), *self.cells]

    @property
    def rows(self) -> list[list]:
        """One list per grid point: its axis values, then its cells."""
        return list(map(list, zip(*self._columns(), strict=True)))

    def column(self, name: str, series_label: str = "") -> list:
        """Values of one column for one series."""
        return list(self._columns()[self._column_index(name, series_label)])

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

        Each axis value and each column is formatted once; a row is its
        axis values' cells, first axis outermost, then its cells.
        """
        axes = [_format_cells(axis.values().tolist()) for axis in self.spec.axes]
        prefixes = map(",".join, itertools.product(*axes))
        cells = [_format_cells(column) for column in self.cells]
        return "\n".join([",".join(self.columns), *map(
            ",".join, zip(prefixes, *cells, strict=True))]) + "\n"

    def to_json(self) -> str:
        objs = [dict(zip(self.columns, row))
                for row in zip(*self._columns(), strict=True)]
        return json.dumps(objs, indent=None, separators=(",", ":")) + "\n"


def _format_cells(values) -> list[str]:
    """CSV cells: 12 significant digits for a float, empty for None, str()
    of anything else."""
    return [f"{v:.12g}" if isinstance(v, float) else "" if v is None else str(v)
            for v in values]


def _column_names(spec: SweepSpec) -> dict[str, str]:
    """Undecorated column of each axis and output of ``spec``, and the error."""
    names = {axis.name: _SWEEP_PARAMS[axis.name][2] for axis in spec.axes}
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


def _batches(grid: np.ndarray) -> list[np.ndarray]:
    """The grid in ceil(n / BATCH_SIZE) batches, rounded up to a multiple of
    BATCH_THREADS when there are several, with sizes that differ by at most
    one point: each round of batches then ends at about the same time. The
    cut depends on n alone, because whether a batch's points share one
    drift (a shared drift's floats differ) depends on where it falls."""
    n = len(grid)
    count = -(-n // BATCH_SIZE)
    if count > 1:
        count = -(-count // BATCH_THREADS) * BATCH_THREADS
    return [grid[n * i // count:n * (i + 1) // count] for i in range(count)]


def _usable_cores() -> int:
    """The cores this process may run on: its affinity mask, where known."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity masks on this OS
        return os.cpu_count() or 1


def map_batches(func, batches: list) -> list:
    """``[func(batch) for batch in batches]`` on one thread per usable core,
    at most BATCH_THREADS, the calling thread included, each in a copy of
    the caller's context (so its ``np.errstate`` holds there too) and each
    taking the next batch until none is left. A lone batch runs as a plain
    call; helper threads live for one call. The first error stops the
    hand-out of further batches and is raised once every thread has stopped."""
    threads = 1 if len(batches) < 2 else min(BATCH_THREADS, _usable_cores())
    if threads < 2:
        return [func(batch) for batch in batches]
    results = [None] * len(batches)
    pending = iter(range(len(batches)))
    raised = []
    lock = threading.Lock()

    def work():
        while True:
            with lock:
                k = None if raised else next(pending, None)
            if k is None:
                return
            try:
                results[k] = func(batches[k])
            except BaseException as exc:
                with lock:
                    raised.append(exc)
                return

    helpers = [threading.Thread(target=contextvars.copy_context().run,
                                args=(work,), name="magnomech")
               for _ in range(threads - 1)]
    for helper in helpers:
        helper.start()
    contextvars.copy_context().run(work)
    for helper in helpers:
        helper.join()
    if raised:
        raise raised[0]
    return results


def run_sweep(spec: SweepSpec) -> SweepResult:
    """Evaluate the grid in batches of at most BATCH_SIZE points.

    Each batch and series is one item, run by :func:`map_batches`. Each
    column of a series' cells joins that column of its items in batch order.
    The batches are the same for any thread count, and so are the results.
    """
    items = [(points, series) for points in _batches(spec.grid())
             for series in spec.series]
    parts = map_batches(lambda item: _series_cells(spec, *item), items)
    n = len(spec.series)  # item b * n + s is batch b's series s
    cells = [list(itertools.chain.from_iterable(pieces)) for s in range(n)
             for pieces in zip(*parts[s::n])]
    return SweepResult(spec=spec, columns=_result_columns(spec), cells=cells)


@np.errstate(all="ignore")  # a prediction reaches no output
def _predict_crossing(base: SystemParams, pair: str, channels: tuple, t_lo: float,
                      t_hi: float, gain_noise: str) -> float | None:
    """Where the pair's eta^- first reaches 1/2 (E_N reaches 0) in
    [t_lo, t_hi], from a drift's solved ``channels``: the cell of a grid of
    _PREDICTION_POINTS temperatures that brackets it, the same grid over that
    cell, then a linear interpolation; None if no cell does or an end is not
    finite. Closed-form occupations and eta^- from the determinants alone,
    as in PairBatch but with no PPT cross-check: it never raises."""
    if not math.isfinite(t_hi - t_lo):
        return None
    columns = base.columns(_PREDICTION_POINTS)
    for _ in range(2):
        t = np.linspace(t_lo, t_hi, _PREDICTION_POINTS)
        occupations = [1.0 / np.expm1(hbar * columns[name] / (k_B * t))
                       for name in ("omega_a", "omega_m", "omega_b")]
        d = diffusion_matrices(columns["kappa_a"], columns["kappa_m"],
                               columns["gamma_b"], *occupations, gain_noise)
        v = _measures.combine_channels(channels, d, no_failures(len(t)))
        sub = v.reshape(-1, 36)[:, _measures._PAIR_ENTRIES[(pair,)][0]]
        _, eta = _measures._log_negativity(_measures._determinants(sub),
                                           no_failures(len(t)))
        cells = np.flatnonzero((eta[:-1] < 0.5) & (eta[1:] >= 0.5))
        if not cells.size:
            return None
        i = cells[0]
        t_lo, t_hi = t[i], t[i + 1]
    return float(t_lo + (0.5 - eta[i]) / (eta[i + 1] - eta[i]) * (t_hi - t_lo))


def vanishing_temperature(base: SystemParams, pair: str, t_lo: float,
                          t_hi: float, gain_noise: str = "vacuum") -> float:
    """Bisect for the temperature where the pair's entanglement reaches zero.

    Requires E_N > 0 at ``t_lo`` and E_N = 0 at ``t_hi`` with the system
    stable across the bracket; returns the midpoint of the final bracket,
    within VANISHING_TEMPERATURE_TOL kelvin. That assumes one crossing:
    under "vacuum" noise E_N is nonincreasing in T, as a hotter bath adds
    positive semidefinite noise to D and so to V (a local operation), but
    "reversed" noise gives no such guarantee.

    T enters only D, so the working point and :func:`_shared_drift` (drift,
    eigenvalues, channel systems) are solved once, and so is a prediction of
    the crossing (:func:`_predict_crossing`). A round is one batch of
    occupations, channel combinations and pair measures. The first takes
    both ends, the midpoints of _SEARCH_LEVELS levels, and below them the
    walk's midpoints toward the prediction. A later round, only where the
    walk leaves that path, takes the midpoints of _SEARCH_LEVELS levels
    below the bracket: never more rounds than without the prediction. The
    drift's failure and instability are raised once, as the low end's.
    Past them only the temperatures the walk visits can raise, and each
    raises what a single point would, in the order a one-at-a-time
    bisection would.
    """
    if not t_lo < t_hi:
        raise BracketInvalidError("need t_lo < t_hi")
    check_gain_noise(gain_noise)
    _measures.check_pair(pair)
    failures = no_failures(1)
    a = _drifts(base.columns(), failures)
    max_lyapunov, stable, channels = _shared_drift(a, failures)
    # A one-point step fails at the drift, an occupation, instability, the
    # combination or the pair measures, in that order. A valid temperature's
    # occupation cannot fail, so once the low end is valid the drift's
    # failure and instability are those of every step, the low end's first.
    base.replace(temperature=t_lo)
    raise_failure(failures)
    try:
        _measures.check_stable(max_lyapunov[0], bool(stable[0]))
    except UnstableSystemError as exc:
        raise BracketInvalidError(f"system unstable inside bracket: {exc}") from exc

    def e_n(temperatures: list) -> dict:
        """Each temperature's E_N, or the first error of its one-point step
        past the shared drift: an occupation's, the combination's, then the
        pair measures'."""
        n = len(temperatures)
        columns, point = base.columns(n), no_failures(n)
        columns["temperature"] = np.array(temperatures)
        d = diffusion_batch(columns, np.arange(n), gain_noise, point)
        v = _measures.combine_channels(channels, d, point)
        batch = _measures.PairBatch(v, (pair,), checked=(pair,))
        measured = batch.failures[:, 0]
        record_failures(point, ~alive(measured), lambda k: measured[k])
        return {temperature: value if failure is None else failure
                for temperature, failure, value
                in zip(temperatures, point, batch.e_n[:, 0].tolist())}

    def outcome(temperature: float) -> float:
        value = outcomes[temperature]
        if isinstance(value, MagnomechError):
            raise type(value)(*value.args)
        return value

    def midpoints(lo: float, hi: float) -> list:
        """The midpoints of _SEARCH_LEVELS bisection levels below [lo, hi],
        level by level, each from the walk's own 0.5 * (lo + hi)."""
        brackets, found = [(lo, hi)], []
        for _ in range(_SEARCH_LEVELS):
            mids = [0.5 * (low + high) for low, high in brackets]
            found += mids
            brackets = [half for (low, high), mid in zip(brackets, mids)
                        for half in ((low, mid), (mid, high))]
        return found

    # The midpoints the walk visits if E_N reaches 0 at the prediction.
    target = _predict_crossing(base, pair, channels, t_lo, t_hi, gain_noise)
    lo, hi, path = t_lo, t_hi, []
    while target is not None and hi - lo > VANISHING_TEMPERATURE_TOL:
        path.append(0.5 * (lo + hi))
        lo, hi = (path[-1], hi) if path[-1] < target else (lo, path[-1])
    # An invalid end fails as the SystemParams holding it would, and the
    # high end only after the low end's own failure.
    outcomes = e_n([t_lo, t_hi, *midpoints(t_lo, t_hi), *path[_SEARCH_LEVELS:]])
    lo_val = outcome(t_lo)
    base.replace(temperature=t_hi)
    hi_val = outcome(t_hi)
    if lo_val <= 0.0:
        raise BracketInvalidError(f"E_N({pair}) = 0 already at {t_lo} K")
    if hi_val > 0.0:
        raise BracketInvalidError(f"E_N({pair}) = {hi_val:.3g} > 0 still at {t_hi} K")
    lo, hi = t_lo, t_hi
    while hi - lo > VANISHING_TEMPERATURE_TOL:
        mid = 0.5 * (lo + hi)
        if mid not in outcomes:  # off-path outcomes are dropped
            outcomes = e_n(midpoints(lo, hi))
        if outcome(mid) > 0.0:
            lo = mid
        else:
            hi = mid
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
