import math

import numpy as np
import pytest

from magnomech import (EigenSolveError, ParameterError, complex_drift,
                       diffusion_matrix, quadrature_drift, stability,
                       thermal_occupation)
from magnomech.dynamics import (STABILITY_REL_TOL, QuadratureDrift,
                                diffusion_matrices, stability_batch)
from magnomech.errors import no_failures

TWO_PI = 2.0 * math.pi
OMEGA_B = TWO_PI * 10e6


def _random_rates(rng):
    return dict(delta_a=rng.uniform(-2, 2) * OMEGA_B,
                delta_m_eff=rng.uniform(-2, 2) * OMEGA_B,
                kappa_a=rng.uniform(-0.5, 0.5) * OMEGA_B,
                kappa_m=rng.uniform(0.01, 0.5) * OMEGA_B,
                gamma_b=rng.uniform(1e-6, 0.1) * OMEGA_B,
                omega_b=OMEGA_B,
                g_ma=rng.uniform(0, 2) * OMEGA_B,
                g_eff=rng.uniform(0, 1) * OMEGA_B)


class TestQuadratureDrift:
    def test_entries(self):
        da, dm, ka, km, gb, wb, g, G = 1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0
        a = quadrature_drift(da, dm, ka, km, gb, wb, g, G).a
        expected = np.array([
            [ka,  da,  0.0,  g,   0.0, 0.0],
            [-da, ka,  -g,   0.0, 0.0, 0.0],
            [0.0, g,   -km,  dm,  -G,  0.0],
            [-g,  0.0, -dm,  -km, 0.0, 0.0],
            [0.0, 0.0, 0.0,  0.0, 0.0, wb],
            [0.0, 0.0, 0.0,  G,   -wb, -gb],
        ])
        assert np.array_equal(a, expected)

    def test_trace_identity(self):
        rng = np.random.default_rng(5)
        for _ in range(200):
            r = _random_rates(rng)
            a = quadrature_drift(**r).a
            assert np.trace(a) == pytest.approx(
                2 * r["kappa_a"] - 2 * r["kappa_m"] - r["gamma_b"], rel=1e-12)

    def test_spectrum_invariant_under_coupling_sign_flip(self):
        # Flipping the mechanical coupling sign is a local reflection.
        rng = np.random.default_rng(6)
        for _ in range(100):
            r = _random_rates(rng)
            e1 = np.sort_complex(np.linalg.eigvals(quadrature_drift(**r).a))
            r["g_eff"] = -r["g_eff"]
            e2 = np.sort_complex(np.linalg.eigvals(quadrature_drift(**r).a))
            assert np.allclose(e1, e2, rtol=1e-9, atol=1e-6)

    def test_rejects_non_finite(self):
        with pytest.raises(ParameterError):
            quadrature_drift(np.nan, 0, 0, 0.1, 0.1, 1.0, 0, 0)


class TestComplexDrift:
    def test_spectra_agree_over_random_draws(self):
        rng = np.random.default_rng(42)
        for _ in range(1000):
            r = _random_rates(rng)
            quad = np.linalg.eigvals(quadrature_drift(**r).a)
            mode = np.linalg.eigvals(complex_drift(**r))
            scale = max(np.abs(quad).max(), 1.0)
            # Multiset comparison: every eigenvalue of one spectrum has a
            # partner in the other within tolerance (robust to sort-order
            # flips between nearly degenerate values).
            dist = np.abs(quad[:, None] - mode[None, :])
            assert dist.min(axis=0).max() <= 1e-9 * scale
            assert dist.min(axis=1).max() <= 1e-9 * scale

    def test_mode_pair_conjugacy(self):
        r = dict(delta_a=-OMEGA_B, delta_m_eff=-OMEGA_B,
                 kappa_a=0.02 * OMEGA_B, kappa_m=0.1 * OMEGA_B,
                 gamma_b=TWO_PI * 10.0, omega_b=OMEGA_B, g_ma=OMEGA_B,
                 g_eff=0.2 * OMEGA_B)
        m = complex_drift(**r)
        # The annihilation/creation rows come in conjugate pairs.
        assert np.allclose(m[1, :2], np.conj(m[0, :2])[::-1])
        assert np.allclose(m[3, 2:4], np.conj(m[2, 2:4])[::-1])


class TestDiffusionMatrix:
    def test_vacuum_convention_uses_magnitude(self):
        for ka in (0.5, -0.5):
            d = diffusion_matrix(ka, 0.3, 0.01, 2.0, 1.0, 40.0).d
            assert d[0, 0] == pytest.approx(abs(ka) * 5.0)
            assert d[1, 1] == d[0, 0]
        d = diffusion_matrix(0.5, 0.3, 0.01, 2.0, 1.0, 40.0).d
        assert d[2, 2] == pytest.approx(0.3 * 3.0)
        assert d[4, 4] == 0.0
        assert d[5, 5] == pytest.approx(0.01 * 81.0)

    def test_reversed_convention_negates_gain(self):
        d = diffusion_matrix(0.5, 0.3, 0.01, 2.0, 1.0, 40.0,
                             gain_noise="reversed").d
        assert d[0, 0] == pytest.approx(-2.5)
        d = diffusion_matrix(-0.5, 0.3, 0.01, 2.0, 1.0, 40.0,
                             gain_noise="reversed").d
        assert d[0, 0] == pytest.approx(2.5)

    def test_diagonal_and_psd_in_vacuum_mode(self):
        d = diffusion_matrix(-0.2, 0.3, 0.01, 0.0, 0.0, 100.0).d
        assert np.array_equal(d, np.diag(np.diag(d)))
        assert np.diag(d).min() >= 0.0

    def test_rejects_bad_inputs(self):
        with pytest.raises(ParameterError):
            diffusion_matrix(0.1, 0.3, 0.01, -1.0, 0.0, 0.0)
        with pytest.raises(ParameterError):
            diffusion_matrix(0.1, 0.3, 0.01, 0.0, 0.0, 0.0, gain_noise="bogus")
        with pytest.raises(ParameterError, match="gain_noise must be one of"):
            diffusion_matrices(0.1, 0.3, 0.01, 0.0, 0.0, 0.0, "bogus")


class TestStability:
    def test_known_stable_point(self):
        drift = quadrature_drift(-OMEGA_B, -OMEGA_B, -0.02 * OMEGA_B,
                                 0.1 * OMEGA_B, TWO_PI * 10.0, OMEGA_B,
                                 OMEGA_B, 0.2 * OMEGA_B)
        report = stability(drift)
        assert report.stable and report.max_lyapunov < 0.0

    def test_near_ep_with_large_coupling_is_unstable(self):
        # Small photon-magnon coupling cannot stabilize a strong drive.
        drift = quadrature_drift(-OMEGA_B, -OMEGA_B, 0.02 * OMEGA_B,
                                 0.1 * OMEGA_B, TWO_PI * 10.0, OMEGA_B,
                                 0.06 * OMEGA_B, 0.2 * OMEGA_B)
        assert not stability(drift).stable

    @pytest.mark.parametrize("omega_b", [OMEGA_B, 1.0])
    def test_verdict_threshold_is_relative_to_omega_b(self, omega_b):
        # Decoupled modes: the cavity loss alone sets max Re lambda = kappa_a.
        def report(kappa_a):
            return stability(quadrature_drift(
                -omega_b, -omega_b, kappa_a, 0.1 * omega_b, 1e-6 * omega_b,
                omega_b, 0.0, 0.0))

        marginal = report(-0.5 * STABILITY_REL_TOL * omega_b)
        assert marginal.max_lyapunov < 0.0 and not marginal.stable
        assert report(-2.0 * STABILITY_REL_TOL * omega_b).stable

    def test_rejected_drift_fails_only_its_own_point(self):
        # LAPACK rejects a stack holding a non-finite matrix as a whole.
        rng = np.random.default_rng(10)
        a = np.stack([quadrature_drift(**_random_rates(rng)).a
                      for _ in range(3)])
        a[1, 0, 0] = np.nan
        failures = no_failures(3)
        eigenvalues, max_lyapunov, stable = stability_batch(a, failures)
        assert failures[0] is None and failures[2] is None
        assert isinstance(failures[1], EigenSolveError)
        assert np.isnan(eigenvalues[1]).all() and not stable[1]
        for k in (0, 2):
            assert np.array_equal(
                eigenvalues[k], stability(QuadratureDrift(a=a[k])).eigenvalues)
            assert max_lyapunov[k] == eigenvalues[k].real.max()

    def test_eigenvalues_conjugate_closed(self):
        rng = np.random.default_rng(9)
        for _ in range(100):
            r = _random_rates(rng)
            eig = stability(quadrature_drift(**r)).eigenvalues
            assert np.allclose(np.sort_complex(eig),
                               np.sort_complex(np.conj(eig)), atol=1e-3)
