"""Output checks: reference comparison, an independent oracle and certificates.

Reference data under ``reference/`` was captured from the library by
``make_reference.py``. Tolerances (stated once, here):

* numeric cells and query values: ``|new - ref| <= ATOL + RTOL * |ref|``,
  with ATOL per quantity below and RTOL = 1e-8;
* empty (unstable) cells, ``stable`` flags and error codes: exact.

A cell that carried an error code in the reference but now returns values is
*recovered*: reported, not failed. A value that turns into an error, a
changed error code or a value outside tolerance is a failure.

The oracle rebuilds drift and diffusion from the model equations, solves
``A V + V A^T = -D`` with ``scipy.linalg.solve_continuous_lyapunov``
(Bartels-Stewart) and evaluates E_N, eta^- and steering from closed-form
2x2/4x4 determinants. It shares no code with the library.
"""

from __future__ import annotations

import csv
import gzip
import io
import json
import math
import re
from pathlib import Path

import numpy as np
import scipy.linalg

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"

RTOL = 1e-8
#: Absolute tolerance per quantity kind: rad/s, nats, kelvin. A vanishing
#: temperature is a bisection midpoint with 1e-4 K tolerance; a sign decision
#: flipped by rounding near the boundary moves it by up to two tolerances.
ATOL = {"max_lyapunov": 1e-6, "measure": 1e-10, "temperature": 2e-4}

#: Oracle agreement demanded against an unrefined Bartels-Stewart solve.
ORACLE_ATOL = 1e-7
ORACLE_LYAPUNOV_REL = 1e-7   # of omega_b, for max Re(eigenvalue)

#: Certificates under the vacuum noise convention.
RESIDUAL_REL_MAX = 1e-10
MARGIN_MIN = -1e-9

HBAR = 1.054571817e-34      # J s
K_B = 1.380649e-23          # J/K (exact in SI)

MODE_ROWS = {"a": (0, 1), "m": (2, 3), "b": (4, 5)}
PAIRS = {"am": ("a", "m"), "bm": ("b", "m"), "ab": ("a", "b")}


def read_reference(name: str) -> str:
    with gzip.open(REFERENCE_DIR / name, "rt", encoding="utf-8") as handle:
        return handle.read()


def read_reference_json(name: str):
    return json.loads(read_reference(name))


def close(new: float, ref: float, atol: float) -> bool:
    return abs(new - ref) <= atol + RTOL * abs(ref)


class CheckReport:
    """Outcome of checking one workload's outputs.

    ``failed`` counts failed checks; ``bad`` counts points that returned an
    error code or failed a check, the numerator of ``failed_fraction``.
    """

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.bad = 0
        self.recovered = 0
        self.error_codes: dict[str, int] = {}
        self.problems: list[str] = []

    def fail(self, message: str) -> None:
        self.failed += 1
        self.bad += 1
        if len(self.problems) < 10:
            self.problems.append(message)

    def record(self, code: str, problem: str | None, recovered: bool) -> None:
        """One attempted point: its error code and its check outcome."""
        self.attempted += 1
        if code:
            self.error_codes[code] = self.error_codes.get(code, 0) + 1
        if recovered:
            self.recovered += 1
        if problem:
            self.fail(problem)
        elif code:
            self.bad += 1

    def merge(self, other: "CheckReport") -> None:
        self.attempted += other.attempted
        self.failed += other.failed
        self.bad += other.bad
        self.recovered += other.recovered
        for code, n in other.error_codes.items():
            self.error_codes[code] = self.error_codes.get(code, 0) + n
        self.problems.extend(other.problems[:10 - len(self.problems)])


def _cell_atol(column: str) -> float | None:
    """Tolerance of a numeric column, None for exact-match columns."""
    if column.startswith("max_lyapunov"):
        return ATOL["max_lyapunov"]
    if column.startswith(("E_N_", "S_", "eta_minus_")):
        return ATOL["measure"]
    return None


def _error_problem(new_code: str, ref_code: str) -> tuple[str | None, bool]:
    """(problem, recovered) from the error codes alone; (None, False) = compare values."""
    if ref_code and not new_code:
        return None, True
    if new_code != ref_code:
        return f"error {ref_code!r} -> {new_code!r}", False
    return None, False


def series_label(column: str) -> str:
    """The ``[label]`` suffix of a series column, "" for unlabelled columns."""
    return column[column.index("["):] if column.endswith("]") else ""


def compare_csv(text: str, ref_text: str, label: str) -> CheckReport:
    """Compare one sweep CSV with its reference; a point is one row of one series."""
    report = CheckReport()
    new_rows = list(csv.reader(io.StringIO(text)))
    ref_rows = list(csv.reader(io.StringIO(ref_text)))
    header = ref_rows[0]
    atols = [_cell_atol(c) for c in header]
    error_cols = [i for i, c in enumerate(header) if c.split("[")[0] == "error"]
    series_cols = {e: [i for i, c in enumerate(header) if i not in error_cols
                       and series_label(c) in ("", series_label(header[e]))]
                   for e in error_cols}
    if not new_rows or new_rows[0] != header:
        new_rows = [header]

    def mismatch(new: list[str], ref: list[str], cols: list[int]) -> str | None:
        for col in cols:
            a, b = new[col], ref[col]
            if a != b and (atols[col] is None or a == "" or b == ""
                           or not close(float(a), float(b), atols[col])):
                return f"{header[col]}: {b!r} -> {a!r}"
        return None

    for i, ref in enumerate(ref_rows[1:], start=1):
        new = new_rows[i] if i < len(new_rows) else None
        for e in error_cols:
            where = f"{label} row {i}{series_label(header[e])}"
            if new is None or len(new) != len(ref):
                report.record("", f"{where}: missing or malformed", False)
                continue
            problem, recovered = _error_problem(new[e], ref[e])
            if problem is None and not recovered:
                problem = mismatch(new, ref, series_cols[e])
            report.record(new[e], problem and f"{where}: {problem}", recovered)
    return report


def compare_values(new: dict, ref: dict, keys, label: str, report: CheckReport,
                   atol: float | None = None) -> None:
    """Compare one query's outputs (None = empty cell) with its reference."""
    problem, recovered = _error_problem(new["error"], ref["error"])
    if problem is None and not recovered:
        for key in keys:
            a, b = new[key], ref[key]
            tol = atol if atol is not None else \
                ATOL["max_lyapunov"] if key == "max_lyapunov" else ATOL["measure"]
            if a != b and (a is None or b is None or key == "stable"
                           or not close(a, b, tol)):
                problem = f"{key}: {b!r} -> {a!r}"
                break
    report.record(new["error"], problem and f"{label}: {problem}", recovered)


def same_measures(output: str, ref_output: str) -> bool:
    """``magnomech measures`` JSON at the bundled point against its reference."""
    try:
        new, ref = json.loads(output), json.loads(ref_output)
    except json.JSONDecodeError:
        return False
    if [o.get("pair") for o in new] != [o["pair"] for o in ref]:
        return False
    return all(close(n[k], r[k], ATOL["measure"]) for n, r in zip(new, ref)
               for k in ("E_N", "S_forward", "S_backward", "eta_minus")) and \
        all(n["physicality_margin"] >= MARGIN_MIN for n in new)


# --- sweep axes ---------------------------------------------------------------

_RATIO_AXES = {
    "G_over_omega_b": ("G_eff", "omega_b"),
    "G_over_gma": ("G_eff", "g_ma"),
    "gma_over_omega_b": ("g_ma", "omega_b"),
    "gma_over_G": ("g_ma", "G_eff"),
    "kappa_a_over_kappa_m": ("kappa_a", "kappa_m"),
}


def apply_axis(params, name: str, value: float):
    """Apply one figure-preset axis or series value, as the CLI documents them.

    Ratio axes scale a reference field; any other name is a parameter field.
    """
    if name == "delta_over_omega_b":
        d = value * params.omega_b
        return params.replace(delta_a=d, delta_m_eff=d)
    if name in _RATIO_AXES:
        target, ref = _RATIO_AXES[name]
        return params.replace(**{target: value * getattr(params, ref)})
    return params.replace(**{name: value})


def grid_params(spec, row: int, series: int = 0):
    """Parameters of one grid row (first axis outermost) of one series."""
    params = spec.base
    for name, value in spec.series[series].overrides:
        params = apply_axis(params, name, value)
    counts = [axis.count for axis in spec.axes]
    index = [row // counts[1], row % counts[1]] if len(counts) == 2 else [row]
    for axis, k in zip(spec.axes, index):
        params = apply_axis(params, axis.name, float(axis.values()[k]))
    return params


# --- the oracle ---------------------------------------------------------------

def occupation(omega: float, temperature: float) -> float:
    if temperature == 0.0:
        return 0.0
    return 1.0 / math.expm1(HBAR * omega / (K_B * temperature))


def oracle_drift(p, delta_m_eff: float, g_eff: float) -> np.ndarray:
    """Linearized quadrature equations of motion (X1, X2, Y1, Y2, x, p).

    dX1 =  ka X1 + Da X2 + g Y2          dY1 =  g X2 - km Y1 + Dm Y2 - G x
    dX2 = -Da X1 + ka X2 - g Y1          dY2 = -g X1 - Dm Y1 - km Y2
    dx  =  wb p                          dp  =  G Y2 - wb x - gb p
    """
    ka, km, g, da, wb = p.kappa_a, p.kappa_m, p.g_ma, p.delta_a, p.omega_b
    dm, G = delta_m_eff, g_eff
    return np.array([
        [ka, da, 0.0, g, 0.0, 0.0],
        [-da, ka, -g, 0.0, 0.0, 0.0],
        [0.0, g, -km, dm, -G, 0.0],
        [-g, 0.0, -dm, -km, 0.0, 0.0],
        [0.0, 0.0, 0.0, 0.0, 0.0, wb],
        [0.0, 0.0, 0.0, G, -wb, -p.gamma_b],
    ])


def oracle_diffusion(p) -> np.ndarray:
    """Input noise under the vacuum convention: |ka|(2n+1) on the cavity."""
    n_a = occupation(p.omega_a, p.temperature)
    n_m = occupation(p.omega_m, p.temperature)
    n_b = occupation(p.omega_b, p.temperature)
    return np.diag([abs(p.kappa_a) * (2 * n_a + 1)] * 2
                   + [p.kappa_m * (2 * n_m + 1)] * 2
                   + [0.0, p.gamma_b * (2 * n_b + 1)])


def oracle_working_point(p, wp) -> str | None:
    """Check a drive-mode working point against its fixed-point equations."""
    if p.delta_m_eff is not None:
        return None
    cavity = 1j * p.delta_a - p.kappa_a
    m_s = p.epsilon_d * cavity / (
        p.g_ma**2 + cavity * (1j * wp.delta_m_eff + p.kappa_m))
    delta_eff = p.delta_m - p.g_mb**2 * abs(m_s) ** 2 / p.omega_b
    if abs(wp.G - p.g_mb * abs(m_s)) > 1e-8 * p.g_mb * abs(m_s):
        return f"G {wp.G!r} vs fixed point {p.g_mb * abs(m_s)!r}"
    if abs(delta_eff - wp.delta_m_eff) > 1e-8 * p.omega_b:
        return f"delta_m_eff {wp.delta_m_eff!r} vs fixed point {delta_eff!r}"
    return None


_ORACLE_COLUMNS = (
    (re.compile(r"^max_lyapunov_rad_s$"), "max_lyapunov"),
    (re.compile(r"^stable$"), "stable"),
    (re.compile(r"^E_N_(am|bm|ab)_nats$"), "E_N({})"),
    (re.compile(r"^eta_minus_(am|bm|ab)$"), "eta_minus({})"),
    (re.compile(r"^S_([amb])_to_([amb])_nats$"), "S({}->{})"),
)


def oracle_key(column: str) -> str | None:
    """Oracle name of a sweep CSV column (series suffix removed), or None."""
    name = column.split("[")[0]
    for pattern, key in _ORACLE_COLUMNS:
        match = pattern.match(name)
        if match:
            return key.format(*match.groups())
    return None


def oracle_measures(p, delta_m_eff: float, g_eff: float) -> dict:
    """Max Re(eig) and, when stable, E_N / eta^- / steering of every pair."""
    a = oracle_drift(p, delta_m_eff, g_eff)
    out = {"max_lyapunov": float(np.linalg.eigvals(a).real.max())}
    if out["max_lyapunov"] >= 0.0:
        return out
    v = scipy.linalg.solve_continuous_lyapunov(a, -oracle_diffusion(p))
    v = 0.5 * (v + v.T)
    for pair, (first, second) in PAIRS.items():
        i, j = MODE_ROWS[first], MODE_ROWS[second]
        det_a = np.linalg.det(v[np.ix_(i, i)])
        det_b = np.linalg.det(v[np.ix_(j, j)])
        det_c = np.linalg.det(v[np.ix_(i, j)])
        det_v = np.linalg.det(v[np.ix_(i + j, i + j)])
        sigma = det_a + det_b - 2.0 * det_c
        eta = math.sqrt(0.5 * (sigma - math.sqrt(max(sigma**2 - 4.0 * det_v, 0.0))))
        out[f"eta_minus({pair})"] = eta
        out[f"E_N({pair})"] = max(0.0, -math.log(2.0 * eta))
        out[f"S({first}->{second})"] = max(0.0, 0.5 * math.log(det_a / (4.0 * det_v)))
        out[f"S({second}->{first})"] = max(0.0, 0.5 * math.log(det_b / (4.0 * det_v)))
    return out


def check_against_oracle(p, delta_m_eff: float, g_eff: float, values: dict,
                         label: str, report: CheckReport) -> None:
    """Compare the program's values at one point with the oracle's."""
    expect = oracle_measures(p, delta_m_eff, g_eff)
    margin = expect["max_lyapunov"]
    if "stable" in values and abs(margin) > 10 * ORACLE_LYAPUNOV_REL * p.omega_b \
            and values["stable"] != int(margin < 0.0):
        report.fail(f"{label}: stable={values['stable']} but the oracle's max "
                    f"Re(eigenvalue) is {margin!r}")
        return
    if "max_lyapunov" in values:
        tol = ORACLE_LYAPUNOV_REL * p.omega_b
        if abs(values["max_lyapunov"] - expect["max_lyapunov"]) > tol:
            report.fail(f"{label}: max_lyapunov {values['max_lyapunov']!r} vs "
                        f"oracle {expect['max_lyapunov']!r}")
            return
    for key, value in values.items():
        if key in ("max_lyapunov", "stable") or value is None:
            continue
        if key not in expect:
            report.fail(f"{label}: {key} = {value!r} but the oracle finds no "
                        "steady state")
            return
        if not close(value, expect[key], ORACLE_ATOL):
            report.fail(f"{label}: {key} {value!r} vs oracle {expect[key]!r}")
            return


def check_certificates(residual: float, margin: float, p, label: str,
                       report: CheckReport) -> None:
    """Relative Lyapunov residual and physicality margin of one solved point."""
    scale = float(np.abs(oracle_diffusion(p)).max())
    if residual > RESIDUAL_REL_MAX * scale:
        report.fail(f"{label}: residual {residual:.3g} > {RESIDUAL_REL_MAX} * {scale:.3g}")
    elif margin < MARGIN_MIN:
        report.fail(f"{label}: physicality margin {margin:.3g} < {MARGIN_MIN}")
