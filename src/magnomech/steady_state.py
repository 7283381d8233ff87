"""Classical working point: steady magnon amplitude and effective coupling."""

from __future__ import annotations

from dataclasses import dataclass

from .errors import DegenerateDenominatorError, NonConvergenceError, ParameterError
from .model import SystemParams

#: Relative threshold below which the response denominator counts as degenerate.
DEGENERATE_REL_TOL = 1e-12

#: Relative convergence target for the fixed-point iteration on |m_s|.
FIXED_POINT_TOL = 1e-10

MAX_ITERATIONS = 10_000


@dataclass(frozen=True)
class WorkingPoint:
    """Steady-state amplitudes and the effective coupling derived from them."""

    m_s: complex
    x_s: float
    delta_m_eff: float
    G: float
    converged: bool = True
    iterations: int = 0


def steady_magnon_amplitude(params: SystemParams, delta_m_eff: float) -> complex:
    """Steady magnon amplitude of the driven, linearly coupled pair.

    m_s = eps_d * (i*Delta_a - kappa_a)
          / [g_ma^2 + (i*Delta_a - kappa_a) * (i*delta_m_eff + kappa_m)]
    """
    if params.epsilon_d is None:
        raise ParameterError("steady_magnon_amplitude requires drive mode (epsilon_d)")
    da, ka = params.delta_a, params.kappa_a
    km, g = params.kappa_m, params.g_ma
    cavity = 1j * da - ka
    denom = g**2 + cavity * (1j * delta_m_eff + km)
    scale = max(abs(da), abs(ka), abs(delta_m_eff), km, g, params.omega_b)
    if abs(denom) < DEGENERATE_REL_TOL * scale**2:
        raise DegenerateDenominatorError(
            f"steady-state denominator {denom!r} below {DEGENERATE_REL_TOL} * scale^2")
    return params.epsilon_d * cavity / denom


def working_point_from_preset(params: SystemParams) -> WorkingPoint:
    """Working point when delta_m_eff and G_eff are both prescribed directly."""
    if params.G_eff is None or params.delta_m_eff is None:
        raise ParameterError("preset working point needs G_eff and delta_m_eff")
    g_mb = params.g_mb
    m_abs = params.G_eff / g_mb if g_mb > 0.0 else 0.0
    x_s = -g_mb * m_abs**2 / params.omega_b
    return WorkingPoint(m_s=complex(m_abs), x_s=x_s,
                        delta_m_eff=params.delta_m_eff, G=params.G_eff)


def self_consistent_working_point(params: SystemParams) -> WorkingPoint:
    """Fixed point of m_s -> x_s = -g_mb |m_s|^2 / omega_b -> delta_m_eff -> m_s.

    The effective detuning uses the signed displacement shift,
    delta_m_eff = delta_m + g_mb * x_s. Raises NonConvergenceError after
    MAX_ITERATIONS without the successive |m_s| change dropping below
    FIXED_POINT_TOL (relative), which signals a bistable or oscillatory
    fixed point. The next iterate depends on |m_s| alone, so once |m_s|
    repeats bit for bit the orbit is periodic and every later step would
    repeat a test that has already failed: the error is then raised at
    once, naming the period.
    """
    if not params.derive_from_drive:
        raise ParameterError("self-consistent working point needs drive mode")
    if params.delta_m is None:
        raise ParameterError("self-consistent mode requires delta_m")
    g_mb, wb, dm = params.g_mb, params.omega_b, params.delta_m

    if params.epsilon_d == 0.0:
        return WorkingPoint(m_s=0j, x_s=0.0, delta_m_eff=dm, G=0.0,
                            converged=True, iterations=1)

    m_s = steady_magnon_amplitude(params, dm)
    # Brent's cycle check on |m_s|: one saved value, re-saved after each
    # power-of-two run of steps.
    saved, power, period = abs(m_s), 1, 0
    for iteration in range(1, MAX_ITERATIONS + 1):
        x_s = -g_mb * abs(m_s) ** 2 / wb
        delta_eff = dm + g_mb * x_s
        m_next = steady_magnon_amplitude(params, delta_eff)
        change = abs(abs(m_next) - abs(m_s))
        m_s = m_next
        if change <= FIXED_POINT_TOL * max(abs(m_s), 1e-300):
            x_s = -g_mb * abs(m_s) ** 2 / wb
            delta_eff = dm + g_mb * x_s
            return WorkingPoint(m_s=m_s, x_s=x_s, delta_m_eff=delta_eff,
                                G=g_mb * abs(m_s), converged=True,
                                iterations=iteration)
        period += 1
        if abs(m_s) == saved:
            raise NonConvergenceError(
                f"fixed-point iteration cycles with period {period}: |m_s| "
                f"repeats exactly at step {iteration}")
        if period == power:
            saved, power, period = abs(m_s), 2 * power, 0
    raise NonConvergenceError(
        f"fixed-point iteration did not converge in {MAX_ITERATIONS} steps")


def working_point(params: SystemParams) -> WorkingPoint:
    """Dispatch to preset or self-consistent evaluation based on the params."""
    if params.G_eff is not None and params.delta_m_eff is not None:
        return working_point_from_preset(params)
    if params.derive_from_drive:
        if params.self_consistent:
            return self_consistent_working_point(params)
        m_s = steady_magnon_amplitude(params, params.delta_m_eff)
        x_s = -params.g_mb * abs(m_s) ** 2 / params.omega_b
        return WorkingPoint(m_s=m_s, x_s=x_s, delta_m_eff=params.delta_m_eff,
                            G=params.g_mb * abs(m_s))
    raise ParameterError("G_eff given but delta_m_eff marked self-consistent")
