import math

import numpy as np
import pytest
from scipy.optimize import brentq

from magnomech import (DegenerateDenominatorError, MagnomechError,
                       NonConvergenceError, ParameterError, SystemParams,
                       default_params, steady_magnon_amplitude, working_point)
from magnomech import steady_state
from magnomech.steady_state import (FIXED_POINT_TOL, MAX_ITERATIONS,
                                    WorkingPoint, self_consistent_working_point,
                                    working_point_from_preset)

TWO_PI = 2.0 * math.pi
OMEGA_B = TWO_PI * 10e6


def reference_working_point(params: SystemParams) -> WorkingPoint:
    """The fixed-point iteration without its cycle exit: a point that does
    not converge runs all MAX_ITERATIONS steps."""
    g_mb, wb, dm = params.g_mb, params.omega_b, params.delta_m
    if params.epsilon_d == 0.0:
        return WorkingPoint(m_s=0j, x_s=0.0, delta_m_eff=dm, G=0.0,
                            converged=True, iterations=1)
    m_s = steady_magnon_amplitude(params, dm)
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
    raise NonConvergenceError(
        f"fixed-point iteration did not converge in {MAX_ITERATIONS} steps")


def _drive_spec_params(delta_m: float, epsilon_d: float) -> SystemParams:
    """The bundled point in drive mode (tests/test_sweep.py's drive_spec)."""
    omega_b = default_params().omega_b
    return default_params().replace(delta_m_eff=None, delta_m=delta_m * omega_b,
                                    G_eff=None, epsilon_d=epsilon_d)


def _result(compute, params):
    try:
        return compute(params)
    except MagnomechError as exc:
        return type(exc)


def _count_steps(monkeypatch) -> list:
    """Count the amplitude evaluations, one more than the steps taken."""
    calls = []
    amplitude = steady_state.steady_magnon_amplitude

    def counted(params, delta_m_eff):
        calls.append(delta_m_eff)
        return amplitude(params, delta_m_eff)
    monkeypatch.setattr(steady_state, "steady_magnon_amplitude", counted)
    return calls


def _drive_params(**overrides):
    defaults = dict(omega_a=TWO_PI * 10.1e9, omega_m=TWO_PI * 10.1e9,
                    omega_b=OMEGA_B, delta_a=-OMEGA_B, delta_m=-OMEGA_B,
                    kappa_a=-0.02 * OMEGA_B, kappa_m=0.1 * OMEGA_B,
                    gamma_b=TWO_PI * 10.0, g_ma=OMEGA_B, g_mb=TWO_PI * 0.2,
                    epsilon_d=1e14, temperature=20e-3)
    defaults.update(overrides)
    return SystemParams(**defaults)


class TestSteadyMagnonAmplitude:
    def test_satisfies_defining_linear_relation(self):
        """m_s must solve [g^2 + (i Da - ka)(i Dm + km)] m = eps (i Da - ka)."""
        rng = np.random.default_rng(3)
        for _ in range(300):
            p = _drive_params(
                delta_a=rng.uniform(-2, 2) * OMEGA_B,
                kappa_a=rng.uniform(-0.05, 0.05) * OMEGA_B,
                kappa_m=rng.uniform(0.01, 0.3) * OMEGA_B,
                g_ma=rng.uniform(0.1, 2.0) * OMEGA_B,
                epsilon_d=rng.uniform(1e12, 1e15))
            dm = rng.uniform(-2, 2) * OMEGA_B
            m_s = steady_magnon_amplitude(p, dm)
            cavity = 1j * p.delta_a - p.kappa_a
            lhs = (p.g_ma**2 + cavity * (1j * dm + p.kappa_m)) * m_s
            rhs = p.epsilon_d * cavity
            assert abs(lhs - rhs) <= 1e-9 * abs(rhs)

    def test_zero_drive(self):
        assert steady_magnon_amplitude(
            _drive_params(epsilon_d=0.0), -OMEGA_B) == 0.0

    def test_degenerate_denominator(self):
        # g_ma = 0, kappa_a = 0, delta_a = 0 zeroes the response denominator.
        p = _drive_params(g_ma=0.0, kappa_a=0.0, delta_a=0.0)
        with pytest.raises(DegenerateDenominatorError):
            steady_magnon_amplitude(p, -OMEGA_B)

    def test_requires_drive_mode(self):
        preset = _drive_params().replace(epsilon_d=None,
                                         G_eff=0.2 * OMEGA_B)
        with pytest.raises(ParameterError):
            steady_magnon_amplitude(preset, -OMEGA_B)


class TestPresetWorkingPoint:
    def test_direct_fields(self):
        p = _drive_params().replace(epsilon_d=None, G_eff=0.2 * OMEGA_B,
                                    delta_m_eff=-OMEGA_B)
        wp = working_point(p)
        assert wp.G == 0.2 * OMEGA_B
        assert wp.delta_m_eff == -OMEGA_B
        assert abs(wp.m_s) == pytest.approx(wp.G / p.g_mb)
        assert wp.x_s == pytest.approx(-p.g_mb * abs(wp.m_s) ** 2 / p.omega_b)

    def test_zero_coupling_rate(self):
        p = _drive_params(g_mb=0.0, epsilon_d=None, G_eff=0.0,
                          delta_m_eff=-OMEGA_B)
        wp = working_point_from_preset(p)
        assert wp.G == 0.0 and wp.x_s == 0.0


class TestSelfConsistentWorkingPoint:
    def test_fixed_point_relations(self):
        p = _drive_params()
        wp = self_consistent_working_point(p)
        assert wp.converged
        # The returned point closes the loop it was iterated on.
        x_s = -p.g_mb * abs(wp.m_s) ** 2 / p.omega_b
        assert wp.x_s == pytest.approx(x_s, rel=1e-9)
        assert wp.delta_m_eff == pytest.approx(p.delta_m + p.g_mb * wp.x_s,
                                               rel=1e-9)
        m_back = steady_magnon_amplitude(p, wp.delta_m_eff)
        assert abs(m_back - wp.m_s) <= 1e-8 * abs(wp.m_s)
        assert wp.G == pytest.approx(p.g_mb * abs(wp.m_s), rel=1e-12)

    def test_against_scalar_root_finder(self):
        """Independent 1-D root solve for |m_s| must agree."""
        p = _drive_params()

        def residual(u):
            shift = -p.g_mb**2 * u**2 / p.omega_b
            return abs(steady_magnon_amplitude(p, p.delta_m + shift)) - u

        u0 = abs(steady_magnon_amplitude(p, p.delta_m))
        root = brentq(residual, 0.5 * u0, 2.0 * u0, xtol=1e-6)
        wp = self_consistent_working_point(p)
        assert abs(wp.m_s) == pytest.approx(root, rel=1e-6)

    def test_zero_drive(self):
        wp = self_consistent_working_point(_drive_params(epsilon_d=0.0))
        assert wp.m_s == 0 and wp.G == 0.0

    def test_dispatcher_routes_by_fields(self):
        assert working_point(_drive_params()).iterations >= 1
        direct = _drive_params(delta_m=None, delta_m_eff=-OMEGA_B)
        wp = working_point(direct)
        assert wp.iterations == 0
        assert wp.delta_m_eff == -OMEGA_B


class TestCycleExit:
    # drive_spec's epsilon_d axis at delta_m = -0.95 omega_b, and a denser one
    # at -0.7 omega_b that holds converging points, cycles of several periods
    # and orbits that never repeat.
    GRID = ([(-0.95, e) for e in np.linspace(8.6e13, 9.4e13, 9).tolist()]
            + [(-0.7, e) for e in np.linspace(8e13, 5e14, 43).tolist()])

    def test_matches_full_iteration(self):
        outcomes = set()
        for delta_m, epsilon_d in self.GRID:
            params = _drive_spec_params(delta_m, epsilon_d)
            expected = _result(reference_working_point, params)
            got = _result(self_consistent_working_point, params)
            # repr() prints every float exactly, so this compares bit for bit.
            assert repr(got) == repr(expected), (delta_m, epsilon_d)
            outcomes.add(expected if isinstance(expected, type) else "converged")
        assert outcomes == {"converged", NonConvergenceError}

    def test_cycling_point_exits_early(self, monkeypatch):
        calls = _count_steps(monkeypatch)
        with pytest.raises(NonConvergenceError, match="period 2"):
            self_consistent_working_point(_drive_spec_params(-0.95, 9.2e13))
        assert len(calls) - 1 < MAX_ITERATIONS

    def test_orbit_that_never_repeats_runs_every_step(self, monkeypatch):
        calls = _count_steps(monkeypatch)
        with pytest.raises(NonConvergenceError,
                           match=f"did not converge in {MAX_ITERATIONS} steps"):
            self_consistent_working_point(_drive_spec_params(-0.7, 2.5e14))
        assert len(calls) - 1 == MAX_ITERATIONS
