import math

import numpy as np
import pytest
import scipy.linalg

from magnomech import (CrossCheckMismatchError, ParameterError,
                       UnstableSystemError, log_negativity, pair_measures,
                       physicality_margin, ppt_symplectic_eigenvalues,
                       quadrature_drift, reduce_cm, reduce_modes,
                       solve_lyapunov, steering, symplectic_form)
from magnomech.dynamics import DiffusionMatrix, QuadratureDrift, StabilityReport
from magnomech.measures import ReducedCM

TWO_PI = 2.0 * math.pi
OMEGA_B = TWO_PI * 10e6

_Z = np.diag([1.0, -1.0])


def tmsv_cm(r: float) -> np.ndarray:
    """Two-mode squeezed vacuum covariance matrix (vacuum variance 1/2)."""
    c, s = math.cosh(2 * r), math.sinh(2 * r)
    return 0.5 * np.block([[c * np.eye(2), s * _Z], [s * _Z, c * np.eye(2)]])


def _reduced(v: np.ndarray, pair: str = "xy") -> ReducedCM:
    return ReducedCM(block_a=v[:2, :2], block_b=v[2:, 2:],
                     block_c=v[:2, 2:], pair=pair)


def random_symplectic(rng, n_modes: int) -> np.ndarray:
    """exp(Omega R) with R symmetric is symplectic."""
    r = rng.standard_normal((2 * n_modes, 2 * n_modes))
    r = 0.5 * (r + r.T)
    return scipy.linalg.expm(symplectic_form(n_modes) @ r)


def random_physical_cm(rng, n_modes: int) -> np.ndarray:
    """S (I/2 + diag(PSD)) S^T is a valid covariance matrix."""
    s = random_symplectic(rng, n_modes)
    occ = np.repeat(rng.uniform(0.0, 2.0, size=n_modes), 2)
    return s @ np.diag(0.5 + occ) @ s.T


class TestSymplecticBasics:
    def test_symplectic_form(self):
        omega = symplectic_form(3)
        assert omega.shape == (6, 6)
        assert np.array_equal(omega[:2, :2], [[0, 1], [-1, 0]])
        assert np.array_equal(omega.T, -omega)

    def test_vacuum_is_marginally_physical(self):
        assert physicality_margin(0.5 * np.eye(6)) == pytest.approx(0.0, abs=1e-12)

    def test_random_cms_are_physical(self):
        rng = np.random.default_rng(21)
        for _ in range(50):
            assert physicality_margin(random_physical_cm(rng, 3)) >= -1e-9


class TestTMSVOracle:
    @pytest.mark.parametrize("r", [0.1, 0.5, 1.0])
    def test_log_negativity_is_2r(self, r):
        e_n, eta = log_negativity(_reduced(tmsv_cm(r)))
        assert e_n == pytest.approx(2 * r, abs=1e-9)
        assert eta == pytest.approx(0.5 * math.exp(-2 * r), abs=1e-9)

    @pytest.mark.parametrize("r", [0.1, 0.5, 1.0])
    def test_steering_is_ln_cosh_2r(self, r):
        rcm = _reduced(tmsv_cm(r))
        expected = math.log(math.cosh(2 * r))
        assert steering(rcm, "forward") == pytest.approx(expected, abs=1e-9)
        assert steering(rcm, "backward") == pytest.approx(expected, abs=1e-9)

    def test_vacuum_has_no_entanglement(self):
        e_n, eta = log_negativity(_reduced(0.5 * np.eye(4)))
        assert e_n == 0.0 and eta == pytest.approx(0.5)


class TestEtaCrossCheck:
    def test_formula_matches_ppt_spectrum(self):
        rng = np.random.default_rng(33)
        for _ in range(1000):
            v = random_physical_cm(rng, 2)
            rcm = _reduced(v)
            _, eta = log_negativity(rcm)
            eta_ppt = ppt_symplectic_eigenvalues(rcm)[0]
            assert abs(eta - eta_ppt) <= 1e-9 * max(eta, 1e-30)

    def test_ppt_eigenvalues_of_tmsv(self):
        nu = ppt_symplectic_eigenvalues(_reduced(tmsv_cm(0.5)))
        assert nu[0] == pytest.approx(0.5 * math.exp(-1.0), rel=1e-9)
        assert nu[1] == pytest.approx(0.5 * math.exp(1.0), rel=1e-9)


class TestInvariances:
    def test_local_rotations_leave_measures_unchanged(self):
        rng = np.random.default_rng(55)
        v = tmsv_cm(0.7)
        for _ in range(50):
            t1, t2 = rng.uniform(0, TWO_PI, size=2)
            rot = np.zeros((4, 4))
            rot[:2, :2] = [[math.cos(t1), math.sin(t1)],
                           [-math.sin(t1), math.cos(t1)]]
            rot[2:, 2:] = [[math.cos(t2), math.sin(t2)],
                           [-math.sin(t2), math.cos(t2)]]
            w = rot @ v @ rot.T
            assert log_negativity(_reduced(w))[0] == pytest.approx(1.4, rel=1e-9)
            assert steering(_reduced(w), "forward") == pytest.approx(
                math.log(math.cosh(1.4)), rel=1e-9)

    def test_thermal_product_state_is_unentangled_and_unsteerable(self):
        v = np.diag([1.5, 1.5, 3.0, 3.0])
        assert log_negativity(_reduced(v))[0] == 0.0
        assert steering(_reduced(v), "forward") == 0.0
        assert steering(_reduced(v), "backward") == 0.0

    def test_steering_asymmetry_detected(self):
        # Adding noise to one mode only breaks the symmetry.
        v = tmsv_cm(1.0)
        v[2:, 2:] += 0.4 * np.eye(2)
        fwd = steering(_reduced(v), "forward")
        bwd = steering(_reduced(v), "backward")
        assert fwd != pytest.approx(bwd)
        # The noisier mode B is the better steering party.
        assert bwd > fwd
        # A -> B is set by B's state conditioned on measuring A, the Schur
        # complement sigma_B - C^T sigma_A^-1 C (and B -> A by swapping roles).
        sig_a, sig_b, c = v[:2, :2], v[2:, 2:], v[:2, 2:]
        cond_b = sig_b - c.T @ np.linalg.inv(sig_a) @ c
        cond_a = sig_a - c @ np.linalg.inv(sig_b) @ c.T
        assert fwd == pytest.approx(
            max(0.0, -math.log(2 * math.sqrt(np.linalg.det(cond_b)))),
            abs=1e-12)
        assert bwd == pytest.approx(
            max(0.0, -math.log(2 * math.sqrt(np.linalg.det(cond_a)))),
            rel=1e-9)


def _stable_drift(rng):
    while True:
        drift = quadrature_drift(
            rng.uniform(-2, 2) * OMEGA_B, rng.uniform(-2, 2) * OMEGA_B,
            rng.uniform(-0.3, 0.0) * OMEGA_B, rng.uniform(0.01, 0.3) * OMEGA_B,
            rng.uniform(1e-4, 0.1) * OMEGA_B, OMEGA_B,
            rng.uniform(0, 1.5) * OMEGA_B, rng.uniform(0, 0.5) * OMEGA_B)
        if np.linalg.eigvals(drift.a).real.max() < -1e-6 * OMEGA_B:
            return drift


class TestLyapunovSolve:
    def test_against_scipy(self):
        rng = np.random.default_rng(77)
        for _ in range(50):
            drift = _stable_drift(rng)
            diag = np.abs(rng.standard_normal(6)) * OMEGA_B
            diag[4] = 0.0
            diffusion = DiffusionMatrix(d=np.diag(diag))
            cm = solve_lyapunov(drift, diffusion)
            expected = scipy.linalg.solve_continuous_lyapunov(drift.a, -diffusion.d)
            assert np.allclose(cm.v, expected, rtol=1e-8,
                               atol=1e-10 * np.abs(expected).max())

    def test_residual_certificate(self):
        rng = np.random.default_rng(78)
        drift = _stable_drift(rng)
        diffusion = DiffusionMatrix(d=np.diag([1, 1, 2, 2, 0, 3.0]) * OMEGA_B)
        cm = solve_lyapunov(drift, diffusion)
        assert cm.residual <= 1e-10 * np.abs(diffusion.d).max()
        assert np.array_equal(cm.v, cm.v.T)

    def test_matrix_is_float64(self):
        # Refinement runs in extended precision; callers get plain doubles.
        drift = _stable_drift(np.random.default_rng(79))
        cm = solve_lyapunov(drift, DiffusionMatrix(d=np.eye(6) * OMEGA_B))
        assert cm.v.dtype == np.float64

    def test_unstable_raises(self):
        drift = quadrature_drift(-OMEGA_B, -OMEGA_B, 0.02 * OMEGA_B,
                                 0.1 * OMEGA_B, TWO_PI * 10, OMEGA_B,
                                 0.06 * OMEGA_B, 0.2 * OMEGA_B)
        with pytest.raises(UnstableSystemError):
            solve_lyapunov(drift, DiffusionMatrix(d=np.eye(6)))

    def test_marginal_spectrum_detected(self):
        # Forged "stable" verdict on a rotation drift: the eigenvalue-pair
        # sum check must still refuse to solve.
        a = np.kron(np.eye(3), [[0.0, 1.0], [-1.0, 0.0]])
        drift = QuadratureDrift(a=a)
        forged = StabilityReport(eigenvalues=np.linalg.eigvals(a),
                                 max_lyapunov=0.0, stable=True)
        with pytest.raises(Exception):
            solve_lyapunov(drift, DiffusionMatrix(d=np.eye(6)),
                           stability_report=forged)


class TestReductions:
    def test_pair_and_mode_reductions_agree(self):
        rng = np.random.default_rng(88)
        v = random_physical_cm(rng, 3)
        for pair, (first, second) in (("am", ("a", "m")), ("bm", ("b", "m")),
                                      ("ab", ("a", "b"))):
            assert np.array_equal(reduce_cm(v, pair).matrix,
                                  reduce_modes(v, first, second).matrix)

    def test_mode_order_swap_swaps_blocks(self):
        rng = np.random.default_rng(89)
        v = random_physical_cm(rng, 3)
        fwd = reduce_modes(v, "a", "m")
        rev = reduce_modes(v, "m", "a")
        assert np.array_equal(fwd.block_a, rev.block_b)
        assert np.allclose(fwd.block_c, rev.block_c.T, rtol=1e-12)
        # E_N does not depend on the ordering; steering direction flips.
        assert log_negativity(fwd)[0] == pytest.approx(log_negativity(rev)[0])
        assert steering(fwd, "forward") == pytest.approx(
            steering(rev, "backward"))

    def test_invalid_labels(self):
        v = 0.5 * np.eye(6)
        with pytest.raises(ParameterError):
            reduce_cm(v, "xx")
        with pytest.raises(ParameterError):
            reduce_modes(v, "a", "a")


class TestPairMeasures:
    def test_consistency_with_parts(self):
        rng = np.random.default_rng(99)
        drift = _stable_drift(rng)
        diffusion = DiffusionMatrix(d=np.diag([1, 1, 2, 2, 0, 3.0]) * OMEGA_B)
        cm = solve_lyapunov(drift, diffusion)
        for pair in ("am", "bm", "ab"):
            pm = pair_measures(cm, pair)
            rcm = reduce_cm(cm, pair)
            assert pm.e_n == log_negativity(rcm)[0]
            assert pm.s_12 == steering(rcm, "forward")
            assert pm.s_21 == steering(rcm, "backward")

    def test_steering_implies_entanglement_on_random_states(self):
        rng = np.random.default_rng(101)
        for _ in range(300):
            rcm = _reduced(random_physical_cm(rng, 2))
            s = max(steering(rcm, "forward"), steering(rcm, "backward"))
            if s > 1e-12:
                assert log_negativity(rcm)[0] > 0.0
