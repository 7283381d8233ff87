"""Classical working point: steady magnon amplitude and effective coupling."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (DegenerateDenominatorError, EigenSolveError, ParameterError,
                     alive, lapack_stack, no_failures, raise_failure,
                     record_failures)
from .model import SystemParams

#: Relative threshold below which the response denominator counts as degenerate.
DEGENERATE_REL_TOL = 1e-12

#: Newton steps that polish each root of the working-point cubic.
NEWTON_STEPS = 2


@dataclass(frozen=True)
class WorkingPoint:
    """Steady-state amplitudes and the effective coupling derived from them."""

    m_s: complex
    x_s: float
    delta_m_eff: float
    G: float
    iterations: int = 0


def _denominator(v: dict, delta: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Re and Im of D = g_ma^2 + (i*Delta_a - kappa_a)(i*delta + kappa_m)."""
    da, ka, km = v["delta_a"], v["kappa_a"], v["kappa_m"]
    return v["g_ma"]**2 - ka * km - da * delta, da * km - ka * delta


def _lower_root(v: dict, gain: np.ndarray, failures: np.ndarray
                ) -> tuple[np.ndarray, np.ndarray]:
    """Smallest root n of n * |D(delta_m - k*n)|^2 = gain, k = g_mb^2/omega_b,
    and the Newton steps taken, per point.

    D is linear in n, so this is a real cubic f(n) = 0, and f(n) <= -gain
    for n <= 0: every real root is positive. One stack of 3x3 companion
    matrices gives the roots of all points; the smallest real one gets
    NEWTON_STEPS Newton steps. Points with gain = 0 have n = 0.
    """
    k = v["g_mb"]**2 / v["omega_b"]
    ar, ai = _denominator(v, v["delta_m"])
    n, steps = np.zeros(len(gain)), np.zeros(len(gain), dtype=int)
    solved = np.flatnonzero(alive(failures) & (gain > 0.0))
    if not solved.size:
        return n, steps
    ar, ai, br, bi, gain = (x[solved] for x in (
        ar, ai, v["delta_a"] * k, v["kappa_a"] * k, gain))
    q2, q1, q0 = br**2 + bi**2, 2.0 * (ar * br + ai * bi), ar**2 + ai**2
    companion = np.zeros((len(solved), 3, 3))
    companion[:, 1, 0] = companion[:, 2, 1] = 1.0
    companion[:, 0, 2], companion[:, 1, 2], companion[:, 2, 2] = (
        gain / q2, -q0 / q2, -q1 / q2)
    roots = lapack_stack(np.linalg.eigvals, (companion,),
                         np.zeros((len(solved), 3), complex), failures, solved,
                         EigenSolveError, "working-point cubic")
    # LAPACK returns a real eigenvalue of a real matrix with zero imaginary
    # part. One below 0 is rounding, of a root far below the others: with no
    # real eigenvalue >= 0 left, the Newton steps start at 0.
    real = np.where((roots.imag == 0.0) & (roots.real >= 0.0), roots.real, np.inf)
    root = real.min(axis=-1)
    root[root == np.inf] = 0.0
    for _ in range(NEWTON_STEPS):
        root = root - (((q2 * root + q1) * root + q0) * root - gain) / (
            (3.0 * q2 * root + 2.0 * q1) * root + q0)
    n[solved], steps[solved] = root, NEWTON_STEPS
    return n, steps


def working_point_batch(v: dict, failures: np.ndarray) -> tuple[np.ndarray, ...]:
    """The WorkingPoint fields (m_s, x_s, delta_m_eff, G, iterations) of N
    points, one N-vector each; a failed point's fields are unspecified: read
    ``failures``.

    ``v`` maps each SystemParams field to None or an N-vector, and x_s =
    -g_mb * |m_s|^2 / omega_b. A preset point (G_eff and delta_m_eff given)
    has m_s = G_eff / g_mb, or 0 when g_mb = 0. In drive mode m_s = eps_d *
    (i*Delta_a - kappa_a) / D(delta_m_eff), which fails with
    DegenerateDenominatorError where |D| < DEGENERATE_REL_TOL * scale^2. A
    self-consistent delta_m_eff (None) is delta_m + g_mb * x_s, on the lower
    branch |m_s|^2 of :func:`_lower_root`.
    """
    size = len(failures)
    if v["G_eff"] is not None and v["delta_m_eff"] is None:
        record_failures(failures, alive(failures), lambda k: ParameterError(
            "G_eff given but delta_m_eff marked self-consistent"))
        return tuple(np.zeros(size, t) for t in (complex, float, float, float, int))
    if v["G_eff"] is not None:
        g_mb = v["g_mb"]
        m_abs = np.divide(v["G_eff"], g_mb, out=np.zeros(size), where=g_mb > 0.0)
        return (m_abs.astype(complex), -g_mb * m_abs**2 / v["omega_b"],
                v["delta_m_eff"], v["G_eff"], np.zeros(size, dtype=int))
    da, ka, eps = v["delta_a"], v["kappa_a"], v["epsilon_d"]
    gain = eps**2 * (da**2 + ka**2)
    if v["delta_m_eff"] is None:
        n, steps = _lower_root(v, gain, failures)
        delta = v["delta_m"] - v["g_mb"]**2 / v["omega_b"] * n
    else:
        delta, steps = v["delta_m_eff"], np.zeros(size, dtype=int)
    dr, di = _denominator(v, delta)
    d2 = dr**2 + di**2
    scale = np.max([np.abs(da), np.abs(ka), np.abs(delta), v["kappa_m"],
                    v["g_ma"], v["omega_b"]], axis=0)
    record_failures(failures, np.sqrt(d2) < DEGENERATE_REL_TOL * scale**2,
                    lambda k: DegenerateDenominatorError(
                        f"steady-state denominator {complex(dr[k], di[k])!r} "
                        f"below {DEGENERATE_REL_TOL} * scale^2"))
    with np.errstate(all="ignore"):  # the 0/0 or x/0 of failed points
        m2 = gain / d2
        return (eps / d2 * ((da * di - ka * dr) + 1j * (da * dr + ka * di)),
                -v["g_mb"] * m2 / v["omega_b"], delta, v["g_mb"] * np.sqrt(m2), steps)


def working_point(params: SystemParams) -> WorkingPoint:
    """A batch of one of :func:`working_point_batch`."""
    failures = no_failures(1)
    fields = working_point_batch(params.columns(), failures)
    raise_failure(failures)
    return WorkingPoint(*(field[0].item() for field in fields))
