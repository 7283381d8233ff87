import math

import numpy as np
import pytest
from scipy.constants import hbar, k as k_B

from magnomech import (GYROMAGNETIC_RATIO, Axis, ParameterError, SweepSpec,
                       SystemParams, default_params, pt_classify,
                       rabi_frequency, run_sweep, thermal_occupation,
                       two_mode_eigenfrequencies)
from magnomech import model
from magnomech.model import PTRegime, sphere_volume

TWO_PI = 2.0 * math.pi
OMEGA_B = TWO_PI * 10e6


class TestThermalOccupation:
    def test_constants_are_exact_si_values(self):
        assert model.hbar == hbar
        assert model.k_B == k_B

    def test_zero_temperature(self):
        assert thermal_occupation(OMEGA_B, 0.0) == 0.0

    def test_against_direct_evaluation(self):
        # Independent evaluation of the Bose-Einstein mean occupation.
        for omega, temp in [(OMEGA_B, 20e-3), (TWO_PI * 10.1e9, 20e-3),
                            (OMEGA_B, 1.0), (TWO_PI * 1e3, 1e-3)]:
            expected = 1.0 / (math.exp(hbar * omega / (k_B * temp)) - 1.0)
            assert thermal_occupation(omega, temp) == pytest.approx(
                expected, rel=1e-11)

    def test_frozen_values(self):
        assert thermal_occupation(OMEGA_B, 20e-3) == pytest.approx(
            41.175238, rel=1e-6)
        assert thermal_occupation(TWO_PI * 10.1e9, 20e-3) < 1e-9

    def test_monotone_in_temperature(self):
        temps = np.linspace(1e-3, 1.0, 50)
        vals = [thermal_occupation(OMEGA_B, t) for t in temps]
        assert all(b > a for a, b in zip(vals, vals[1:]))

    def test_sub_millikelvin_microwave_mode(self):
        # hbar*omega/(kB*T) is ~969 at 0.5 mK and ~4.8e5 at 1 uK, beyond
        # where exp overflows; the occupation underflows to 0 instead.
        omega = TWO_PI * 10.1e9
        for temp in (0.5e-3, 1e-6):
            assert thermal_occupation(omega, temp) == 0.0
        # Just past the overflow edge the value is exp(-x), a subnormal.
        temp = hbar * omega / (k_B * 720.0)
        expected = math.exp(-hbar * omega / (k_B * temp))
        assert 0.0 < thermal_occupation(omega, temp) == pytest.approx(
            expected, rel=1e-9)

    def test_monotone_down_to_zero(self):
        omega = TWO_PI * 10.1e9
        temps = np.linspace(0.0, 2e-3, 401)
        vals = [thermal_occupation(omega, t) for t in temps]
        assert vals[0] == 0.0
        assert all(math.isfinite(v) and v >= 0.0 for v in vals)
        assert all(b >= a for a, b in zip(vals, vals[1:]))
        assert vals[-1] > 0.0

    def test_underflowing_thermal_energy_is_zero_temperature(self):
        # k_B*T underflows to 0 below about 1.8e-301 K: the T -> 0 limit.
        assert k_B * 1e-310 == 0.0
        for temp in (1e-310, 5e-324):
            assert thermal_occupation(OMEGA_B, temp) == 0.0

    def test_underflowing_quantum_energy_is_infinite(self):
        # hbar*omega/(k_B*T) underflows to 0 below omega ~ 5e-290 rad/s:
        # k_B*T/(hbar*omega) exceeds every double, so the occupation is inf.
        for omega in (5e-324, 1e-300):
            assert hbar * omega / k_B == 0.0
            assert thermal_occupation(omega, 1.0) == math.inf
            assert thermal_occupation(omega, 0.0) == 0.0

    def test_invalid_inputs(self):
        with pytest.raises(ParameterError):
            thermal_occupation(-1.0, 0.1)
        with pytest.raises(ParameterError):
            thermal_occupation(OMEGA_B, -0.1)


class TestRabiFrequency:
    def test_linear_in_field(self):
        base = rabi_frequency(1e-4, 250e-6, 4.22e27)
        assert rabi_frequency(2e-4, 250e-6, 4.22e27) == pytest.approx(2 * base)
        assert rabi_frequency(1e-10, 250e-6, 4.22e27) == pytest.approx(
            1e-6 * base)

    def test_magnitude(self):
        # sqrt(5)/4 * gamma * sqrt(rho V) * B0 for a 250 um sphere.
        val = rabi_frequency(6.88e-5, 250e-6, 4.22e27)
        n_total = 4.22e27 * sphere_volume(250e-6)
        expected = math.sqrt(5.0) / 4.0 * GYROMAGNETIC_RATIO \
            * math.sqrt(n_total) * 6.88e-5
        assert val == pytest.approx(expected, rel=1e-12)
        assert 1e15 < val < 2e15

    def test_invalid(self):
        with pytest.raises(ParameterError):
            rabi_frequency(0.0, 250e-6, 4.22e27)


class TestPTClassify:
    def test_exceptional_point_location(self):
        km = 0.1 * OMEGA_B
        ka = 0.2 * km
        phase = pt_classify(0.06 * OMEGA_B, ka, km)
        assert phase.regime is PTRegime.EXCEPTIONAL_POINT
        assert pt_classify(0.0601 * OMEGA_B, ka, km).regime is PTRegime.UNBROKEN
        assert pt_classify(0.0599 * OMEGA_B, ka, km).regime is PTRegime.BROKEN

    def test_scale_invariance(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            g, ka, km = rng.uniform(0.0, 2.0), rng.uniform(-1.0, 1.0), \
                rng.uniform(0.01, 1.0)
            scale = rng.uniform(1e-3, 1e9)
            assert pt_classify(g, ka, km).regime is \
                pt_classify(scale * g, scale * ka, scale * km).regime

    def test_margin_sign(self):
        assert pt_classify(1.0, 0.1, 0.1).margin == pytest.approx(1.8)

    def test_kappa_m_must_be_positive(self):
        with pytest.raises(ParameterError,
                           match="^pt_classify: kappa_m must be positive$"):
            pt_classify(1.0, 0.1, 0.0)

    def test_overflowing_rate_sum_is_broken(self):
        # kappa_a + kappa_m overflows, and so does the margin, but 2 g_ma
        # is far below the sum: not an exceptional point.
        phase = pt_classify(OMEGA_B, 1e308, 1e308)
        assert phase.regime is PTRegime.BROKEN
        assert phase.margin == -math.inf


class TestTwoModeEigenfrequencies:
    @pytest.mark.parametrize("kappa_a, kappa_m, g_ma", [
        (0.02 * OMEGA_B, 0.1 * OMEGA_B, 1.4e154),  # g_ma^2 overflows
        (1e308, 1e308, OMEGA_B),  # kappa_a + kappa_m overflows
        (-1e308, 1e308, OMEGA_B)],  # kappa_m - kappa_a overflows
        ids=["square", "sum", "difference"])
    def test_overflow_is_a_parameter_error(self, kappa_a, kappa_m, g_ma):
        with pytest.raises(ParameterError, match="eigenfrequencies overflow"):
            two_mode_eigenfrequencies(-OMEGA_B, kappa_a, kappa_m, g_ma)

    def test_nan_input_is_a_parameter_error(self):
        with pytest.raises(ParameterError,
                           match="^two_mode_eigenfrequencies: non-finite input$"):
            two_mode_eigenfrequencies(0.3, math.nan, 0.2, 0.1)

    def test_decoupled_limit(self):
        wp, wm = two_mode_eigenfrequencies(0.3, 0.1, 0.2, 0.0)
        assert wp == pytest.approx(-0.3 + 0.1j)
        assert wm == pytest.approx(-0.3 - 0.2j)

    def test_balanced_real_pair(self):
        ka = km = 0.1 * OMEGA_B
        wp, wm = two_mode_eigenfrequencies(-OMEGA_B, ka, km, OMEGA_B)
        assert wp.imag == pytest.approx(0.0, abs=1e-9 * OMEGA_B)
        assert wm.imag == pytest.approx(0.0, abs=1e-9 * OMEGA_B)
        assert wp.real == pytest.approx((1 + 0.994987) * OMEGA_B, rel=1e-5)
        assert wm.real == pytest.approx((1 - 0.994987) * OMEGA_B, rel=1e-4)

    def test_ep_degeneracy(self):
        wp, wm = two_mode_eigenfrequencies(-1.0, 0.05, 0.07, 0.06)
        assert wp == pytest.approx(wm)

    def test_trace_identity(self):
        rng = np.random.default_rng(11)
        for _ in range(500):
            d, ka, km, g = rng.uniform(-2, 2, size=4)
            wp, wm = two_mode_eigenfrequencies(d, ka, km, g)
            assert wp.imag + wm.imag == pytest.approx(-(km - ka), abs=1e-12)


def _params(**overrides):
    defaults = dict(omega_a=TWO_PI * 10.1e9, omega_m=TWO_PI * 10.1e9,
                    omega_b=OMEGA_B, delta_a=-OMEGA_B,
                    delta_m_eff=-OMEGA_B, kappa_a=0.02 * OMEGA_B,
                    kappa_m=0.1 * OMEGA_B, gamma_b=TWO_PI * 10.0,
                    g_ma=OMEGA_B, g_mb=TWO_PI * 0.2, G_eff=0.2 * OMEGA_B,
                    temperature=20e-3)
    defaults.update(overrides)
    return SystemParams(**defaults)


class TestSystemParams:
    def test_requires_exactly_one_coupling_source(self):
        with pytest.raises(ParameterError):
            _params(G_eff=None)  # neither
        with pytest.raises(ParameterError):
            _params(epsilon_d=1e14)  # both

    def test_requires_delta_m_when_self_consistent(self):
        with pytest.raises(ParameterError):
            _params(delta_m_eff=None)
        assert _params(delta_m_eff=None, delta_m=-OMEGA_B).delta_m_eff is None

    def test_rejects_nonpositive_rates(self):
        for bad in (dict(kappa_m=0.0), dict(gamma_b=-1.0), dict(omega_b=0.0),
                    dict(temperature=-1e-3), dict(g_ma=-1.0)):
            with pytest.raises(ParameterError):
                _params(**bad)

    def test_rejects_nonpositive_mode_frequencies(self):
        for bad in (dict(omega_a=0.0), dict(omega_a=-OMEGA_B),
                    dict(omega_m=0.0), dict(omega_m=-OMEGA_B)):
            with pytest.raises(ParameterError, match="must be positive"):
                _params(**bad)
        # Batch columns obey the same rules: only the positive cell solves.
        for name in ("omega_a", "omega_m"):
            spec = SweepSpec(base=default_params(),
                             axes=(Axis(name, -OMEGA_B, OMEGA_B, 3),),
                             outputs=("stable", "E_N(am)"))
            assert run_sweep(spec).column("error") == [
                "parameter_error", "parameter_error", ""]

    def test_gain_cavity_allowed(self):
        assert _params(kappa_a=0.02 * OMEGA_B).kappa_a > 0
        assert _params(kappa_a=-0.02 * OMEGA_B).kappa_a < 0

    def test_replace_is_validated(self):
        with pytest.raises(ParameterError):
            _params().replace(kappa_m=-1.0)
