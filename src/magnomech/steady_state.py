"""Classical working point: steady magnon amplitude and effective coupling."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (DegenerateDenominatorError, EigenSolveError, ParameterError,
                     alive, batch_of_one, lapack_stack, record_failures)
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
    NEWTON_STEPS Newton steps. Points with gain = 0 or gain = inf have n = 0.
    """
    k = v["g_mb"]**2 / v["omega_b"]
    ar, ai = _denominator(v, v["delta_m"])
    n, steps = np.zeros(len(gain)), np.zeros(len(gain), dtype=int)
    solved = np.flatnonzero(alive(failures) & (0.0 < gain) & (gain < np.inf))
    if not solved.size:
        return n, steps
    ar, ai, br, bi, gain = (x[solved] for x in (
        ar, ai, v["delta_a"] * k, v["kappa_a"] * k, gain))
    q2, q1, q0 = br**2 + bi**2, 2.0 * (ar * br + ai * bi), ar**2 + ai**2
    companion = np.zeros((len(solved), 3, 3))
    companion[:, 1, 0] = companion[:, 2, 1] = 1.0
    companion[:, 0, 2], companion[:, 1, 2], companion[:, 2, 2] = (
        gain / q2, -q0 / q2, -q1 / q2)
    # Where q2 is so small (or 0) that these overflow, solve the same cubic
    # for w = s/n, s = gain/q0: w^3 - w^2 - (q1*s/q0)*w - q2*s^2/q0 = 0 is
    # monic with bounded coefficients; its largest real root gives the lower n.
    scaled = ~np.isfinite(companion[:, :, 2]).all(axis=-1)
    if scaled.any():
        s = gain[scaled] / q0[scaled]
        companion[scaled, :, 2] = np.stack([q2[scaled] * s**2, q1[scaled] * s,
                                            q0[scaled]], axis=-1) / q0[scaled, None]
    roots = lapack_stack(np.linalg.eigvals, (companion,),
                         np.zeros((len(solved), 3), complex), failures, solved,
                         EigenSolveError, "working-point cubic")
    # LAPACK returns a real eigenvalue of a real matrix with zero imaginary
    # part. One below 0 is rounding, of a root far below the others: with no
    # real eigenvalue >= 0 left, the Newton steps start at 0.
    real = np.where((roots.imag == 0.0) & (roots.real >= 0.0), roots.real, np.inf)
    root = real.min(axis=-1)
    root[root == np.inf] = 0.0
    if scaled.any():
        root[scaled] = s / np.where(roots[scaled].imag == 0.0,
                                    roots[scaled].real, 0.0).max(axis=-1)
    for _ in range(NEWTON_STEPS):
        root = root - (((q2 * root + q1) * root + q0) * root - gain) / (
            (3.0 * q2 * root + 2.0 * q1) * root + q0)
    n[solved], steps[solved] = root, NEWTON_STEPS
    return n, steps


@np.errstate(all="ignore")  # failed or extreme points divide by 0 or overflow
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
    branch |m_s|^2 of :func:`_lower_root`. In every mode a point whose m_s,
    x_s, delta_m_eff or G overflows fails with ParameterError.
    """
    size = len(failures)
    if v["G_eff"] is not None:
        g_mb, delta = v["g_mb"], v["delta_m_eff"]
        if delta is None:
            record_failures(failures, alive(failures), lambda k: ParameterError(
                "G_eff given but delta_m_eff marked self-consistent"))
            delta = np.zeros(size)
        m_abs = np.divide(v["G_eff"], g_mb, out=np.zeros(size), where=g_mb > 0.0)
        fields = (m_abs.astype(complex), -g_mb * m_abs**2 / v["omega_b"], delta,
                  v["G_eff"], np.zeros(size, dtype=int))
    else:
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
        m2 = gain / d2
        fields = (eps / d2 * ((da * di - ka * dr) + 1j * (da * dr + ka * di)),
                  -v["g_mb"] * m2 / v["omega_b"], delta, v["g_mb"] * np.sqrt(m2),
                  steps)
    m_s, x_s, delta, g, _ = fields
    finite = np.isfinite(m_s) & np.isfinite(x_s) & np.isfinite(delta) & np.isfinite(g)
    record_failures(failures, ~finite, lambda k: ParameterError(
        f"working point overflows: m_s = {m_s[k]}, x_s = {x_s[k]}, "
        f"delta_m_eff = {delta[k]}, G = {g[k]}"))
    return fields


def working_point(params: SystemParams) -> WorkingPoint:
    """A batch of one of :func:`working_point_batch`."""
    fields = batch_of_one(working_point_batch, params.columns())
    return WorkingPoint(*(field[0].item() for field in fields))
