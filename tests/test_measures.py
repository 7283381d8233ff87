import math
import warnings

import numpy as np
import pytest
import scipy.linalg
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from magnomech import (CrossCheckMismatchError, NonFiniteDeterminantError,
                       NonPhysicalCMError, ParameterError, SingularSolveError,
                       UnstableSystemError,
                       diffusion_matrix, log_negativity, pair_measures,
                       physicality_margin,
                       ppt_symplectic_eigenvalues, quadrature_drift,
                       solve_lyapunov, steering,
                       steering_between, symplectic_form)
from magnomech import dynamics, measures
from magnomech.dynamics import DiffusionMatrix
from magnomech.errors import no_failures
from magnomech.measures import MODE_INDICES, PairBatch, lyapunov_batch

TWO_PI = 2.0 * math.pi
OMEGA_B = TWO_PI * 10e6

_Z = np.diag([1.0, -1.0])


def tmsv_cm(r: float) -> np.ndarray:
    """Two-mode squeezed vacuum covariance matrix (vacuum variance 1/2)."""
    c, s = math.cosh(2 * r), math.sinh(2 * r)
    return 0.5 * np.block([[c * np.eye(2), s * _Z], [s * _Z, c * np.eye(2)]])


def _reduced(v: np.ndarray, first: str, second: str) -> np.ndarray:
    """4x4 submatrix of two modes of a 6x6 matrix, ``first`` first."""
    idx = MODE_INDICES[first] + MODE_INDICES[second]
    return np.asarray(v)[np.ix_(idx, idx)]


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
        e_n, eta = log_negativity(tmsv_cm(r))
        assert e_n == pytest.approx(2 * r, abs=1e-9)
        assert eta == pytest.approx(0.5 * math.exp(-2 * r), abs=1e-9)

    @pytest.mark.parametrize("r", [0.1, 0.5, 1.0])
    def test_steering_is_ln_cosh_2r(self, r):
        rcm = tmsv_cm(r)
        expected = math.log(math.cosh(2 * r))
        assert steering(rcm, "forward") == pytest.approx(expected, abs=1e-9)
        assert steering(rcm, "backward") == pytest.approx(expected, abs=1e-9)

    def test_vacuum_has_no_entanglement(self):
        e_n, eta = log_negativity(0.5 * np.eye(4))
        assert e_n == 0.0 and eta == pytest.approx(0.5)


class TestEtaCrossCheck:
    def test_formula_matches_ppt_spectrum(self):
        rng = np.random.default_rng(33)
        for _ in range(1000):
            v = random_physical_cm(rng, 2)
            _, eta = log_negativity(v)
            eta_ppt = ppt_symplectic_eigenvalues(v)[0]
            assert abs(eta - eta_ppt) <= 1e-9 * max(eta, 1e-30)

    def test_ppt_eigenvalues_of_tmsv(self):
        nu = ppt_symplectic_eigenvalues(tmsv_cm(0.5))
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
            assert log_negativity(w)[0] == pytest.approx(1.4, rel=1e-9)
            assert steering(w, "forward") == pytest.approx(
                math.log(math.cosh(1.4)), rel=1e-9)

    def test_thermal_product_state_is_unentangled_and_unsteerable(self):
        v = np.diag([1.5, 1.5, 3.0, 3.0])
        assert log_negativity(v)[0] == 0.0
        assert steering(v, "forward") == 0.0
        assert steering(v, "backward") == 0.0

    def test_steering_asymmetry_detected(self):
        # Adding noise to one mode only breaks the symmetry.
        v = tmsv_cm(1.0)
        v[2:, 2:] += 0.4 * np.eye(2)
        fwd = steering(v, "forward")
        bwd = steering(v, "backward")
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


def channel_combination(a, d, eigenvalues, failures):
    """V and residual of N points that share the drift ``a[0]``: a
    combination of its three channel solutions, and the residual of each
    combination in extended precision."""
    channels = measures.channel_covariances(a[0], eigenvalues[0])
    v = measures.combine_channels(channels, d, failures)
    return v, measures.lyapunov_residuals(a, v, d)


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
        # A rotation drift handed to the solver as if it were stable: the
        # eigenvalue-pair sum check must still refuse to solve.
        a = np.kron(np.eye(3), [[0.0, 1.0], [-1.0, 0.0]])
        failures = no_failures(1)
        v, residual = lyapunov_batch(a[None], np.eye(6)[None],
                                     np.linalg.eigvals(a)[None], failures)
        assert isinstance(failures[0], SingularSolveError)
        assert np.isnan(v).all() and np.isnan(residual).all()

    def test_guard_flags_the_points_whose_pair_sums_vanish(self):
        # Random stable real drifts whose slowest decay rate is 1e-17 to 0.1
        # of their largest |lambda|, around the guard's 1e-14 on both sides.
        # The reference is the smallest of all 36 pair sums |lambda_i + lambda_j|.
        rng = np.random.default_rng(82)
        a = rng.standard_normal((4000, 6, 6)) * 10.0 ** rng.uniform(-3, 3, (4000, 1, 1))
        spectra = np.linalg.eigvals(a)
        rates = 10.0 ** rng.uniform(-17, -1, 4000) * np.abs(spectra).max(axis=-1)
        a -= (spectra.real.max(axis=-1) + rates)[:, None, None] * np.eye(6)
        eigenvalues = np.linalg.eigvals(a).astype(complex)
        eigenvalues = eigenvalues[eigenvalues.real.max(axis=-1) < 0.0]
        pair_sums = np.abs(eigenvalues[:, :, None] + eigenvalues[:, None, :])
        scale = np.maximum(np.abs(eigenvalues).max(axis=-1), 1e-300)
        expected = pair_sums.min(axis=(1, 2)) < 1e-14 * scale
        failures = no_failures(len(eigenvalues))
        measures._check_solvable(eigenvalues, np.zeros((len(eigenvalues), 6, 6)),
                                 failures)
        flagged = [isinstance(failure, SingularSolveError) for failure in failures]
        assert flagged == expected.tolist()
        assert 100 < expected.sum() < len(expected) - 100

    def test_rejected_system_fails_only_its_own_point(self):
        # A zero drift handed to the solver with a made-up stable spectrum
        # passes the pair-sum guard, but its 36x36 system is exactly
        # singular. Only that point may fail, without a warning, and its
        # neighbours must get the answers they get alone.
        rng = np.random.default_rng(80)
        good = [_stable_drift(rng).a for _ in range(2)]
        a = np.stack([good[0], np.zeros((6, 6)), good[1]])
        d = np.stack([np.diag([1.0, 1.0, 2.0, 2.0, 0.0, 3.0]) * OMEGA_B] * 3)
        eigenvalues = np.stack([np.linalg.eigvals(good[0]), -np.ones(6),
                                np.linalg.eigvals(good[1])])
        failures = no_failures(3)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            v, residual = lyapunov_batch(a, d, eigenvalues, failures)
        assert failures[0] is None and failures[2] is None
        assert isinstance(failures[1], SingularSolveError)
        assert "Singular matrix" in str(failures[1])
        assert np.isnan(v[1]).all() and np.isnan(residual[1])
        for k in (0, 2):
            alone = no_failures(1)
            v_k, residual_k = lyapunov_batch(a[k:k + 1], d[k:k + 1],
                                             eigenvalues[k:k + 1], alone)
            assert alone[0] is None
            assert np.array_equal(v[k], v_k[0])
            assert residual[k] == residual_k[0]
        # A shared singular drift fails each point with its own exception.
        failures = no_failures(3)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            v, residual = channel_combination(a[[1, 1, 1]], d, eigenvalues[[1, 1, 1]],
                                              failures)
        assert len({id(failure) for failure in failures}) == 3
        for k in range(3):
            assert isinstance(failures[k], SingularSolveError)
            assert "Singular matrix" in str(failures[k])
            assert np.isnan(v[k]).all() and np.isnan(residual[k])

    @pytest.mark.parametrize("solve", [lyapunov_batch, channel_combination])
    def test_only_an_overflowing_solution_fails(self, solve):
        # V = D / 0.02: it overflows at D = 1e308, and at 1e306 both V and
        # every step of the solve that leads to it stay finite.
        a = np.stack([-0.01 * np.eye(6)] * 2)
        eigenvalues = np.full((2, 6), -0.01 + 0j)
        d = np.stack([np.diag([1.0, 1.0, 1.0, 1.0, 0.0, 1.0]) * x
                      for x in (1e308, 1e306)])
        failures = no_failures(2)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            v, residual = solve(a, d, eigenvalues, failures)
        assert isinstance(failures[0], SingularSolveError)
        assert "non-finite solution" in str(failures[0])
        assert np.isnan(v[0]).all() and np.isnan(residual[0])
        assert failures[1] is None
        assert np.abs(v[1] - 50.0 * d[1]).max() <= 1e-12 * 5e307

    def test_shared_drift_combines_its_noise_channels(self):
        # V is linear in the diagonal D: three channel solves give every
        # point of a shared drift, to rounding, with an extended-precision
        # residual below target. A bad D fails only its own point.
        rng = np.random.default_rng(81)
        a = np.stack([_stable_drift(rng).a] * 4)
        eigenvalues = np.stack([np.linalg.eigvals(a[0])] * 4)
        rates = rng.uniform(0.1, 3.0, size=(4, 3)) * OMEGA_B
        d = np.stack([np.diag(r[[0, 0, 1, 1]].tolist() + [0.0, r[2]])
                      for r in rates])
        d[2, 5, 5] = np.inf  # fails before the combination
        failures = no_failures(4)
        v, residual = channel_combination(a, d, eigenvalues, failures)
        assert isinstance(failures[2], SingularSolveError)
        assert np.isnan(v[2]).all() and np.isnan(residual[2])
        for k in (0, 1, 3):
            alone = no_failures(1)
            v_k, _ = lyapunov_batch(a[k:k + 1], d[k:k + 1], eigenvalues[k:k + 1],
                                    alone)
            assert failures[k] is None and alone[0] is None
            assert np.abs(v[k] - v_k[0]).max() <= 1e-12 * np.abs(v_k[0]).max()
            assert residual[k] <= measures.RESIDUAL_REL_TARGET * np.abs(d[k]).max()
            al, vl = a[k].astype(np.longdouble), v[k].astype(np.longdouble)
            assert residual[k] == np.abs(al @ vl + vl @ al.T + d[k]).max()


def _rates(lo, hi):
    return st.floats(lo, hi).map(lambda x: x * OMEGA_B)


@settings(derandomize=True, max_examples=200, deadline=None)
@given(delta_a=_rates(-2.0, 2.0), delta_m_eff=_rates(-2.0, 2.0),
       kappa_a=_rates(-0.3, 0.3), kappa_m=_rates(0.01, 0.3),
       gamma_b=_rates(1e-7, 1e-4), g_ma=_rates(0.0, 1.5),
       g_eff=_rates(0.0, 0.5), n_a=st.floats(0.0, 10.0),
       n_m=st.floats(0.0, 10.0), n_b=st.floats(10.0, 1e4))
def test_vacuum_noise_solutions_are_certified_and_physical(
        delta_a, delta_m_eff, kappa_a, kappa_m, gamma_b, g_ma, g_eff,
        n_a, n_m, n_b):
    # The mechanical bath is Brownian-motion noise on the momentum alone,
    # which needs n_b >> 1: near n_b = 0 it yields unphysical states (margins
    # down to about -7e-6 at gamma_b = 1e-4 omega_b, the same from scipy's
    # solver), a limit of the model and not of the solve. n_b >= 10 is a
    # 10 MHz oscillator above about 5 mK.
    drift = quadrature_drift(delta_a, delta_m_eff, kappa_a, kappa_m, gamma_b,
                             OMEGA_B, g_ma, g_eff)
    assume(np.linalg.eigvals(drift.a).real.max() <= -1e-6 * OMEGA_B)
    diffusion = diffusion_matrix(kappa_a, kappa_m, gamma_b, n_a, n_m, n_b)
    cm = solve_lyapunov(drift, diffusion)
    assert cm.residual <= 1e-10 * np.abs(diffusion.d).max()
    assert cm.physicality_margin >= -1e-9


class TestReductions:
    def test_mode_order_swap_swaps_blocks(self):
        rng = np.random.default_rng(89)
        v = random_physical_cm(rng, 3)
        fwd = _reduced(v, "a", "m")
        rev = _reduced(v, "m", "a")
        assert np.array_equal(fwd[:2, :2], rev[2:, 2:])
        assert np.allclose(fwd[:2, 2:], rev[:2, 2:].T, rtol=1e-12)
        # E_N does not depend on the ordering; steering direction flips.
        assert log_negativity(fwd)[0] == pytest.approx(log_negativity(rev)[0])
        assert steering(fwd, "forward") == pytest.approx(
            steering(rev, "backward"))

    def test_invalid_labels(self):
        v = 0.5 * np.eye(6)
        with pytest.raises(ParameterError):
            pair_measures(v, "xx")
        with pytest.raises(ParameterError):
            steering_between(v, "a", "a")
        with pytest.raises(ParameterError,
                           match="^direction must be 'forward' or 'backward'$"):
            steering(_reduced(v, "a", "m"), "sideways")

    @pytest.mark.parametrize("shape", [(3, 3), (4, 6), (1, 6, 6), (8, 8)])
    def test_margin_takes_a_matrix_of_one_to_three_modes(self, shape):
        with pytest.raises(ParameterError, match="2x2, 4x4 or 6x6"):
            physicality_margin(np.ones(shape))

    @pytest.mark.parametrize("shape", [(3, 3), (4, 6), (4, 4)])
    def test_three_mode_measures_take_a_6x6_matrix(self, shape):
        v = 0.5 * np.eye(6)[:shape[0], :shape[1]]
        with pytest.raises(ParameterError, match="6x6"):
            pair_measures(v, "am")
        with pytest.raises(ParameterError, match="6x6"):
            steering_between(v, "a", "m")

    def test_two_mode_helpers_take_a_4x4_matrix(self):
        v = 0.5 * np.eye(6)
        for helper in (log_negativity, steering, ppt_symplectic_eigenvalues):
            with pytest.raises(ParameterError, match="4x4"):
                helper(v)
            helper(_reduced(v, "a", "b"))


class TestPairMeasures:
    def test_consistency_with_parts(self):
        rng = np.random.default_rng(99)
        drift = _stable_drift(rng)
        diffusion = DiffusionMatrix(d=np.diag([1, 1, 2, 2, 0, 3.0]) * OMEGA_B)
        cm = solve_lyapunov(drift, diffusion)
        for pair in ("am", "bm", "ab"):
            pm = pair_measures(cm, pair)
            rcm = _reduced(cm.v, pair[0], pair[1])
            assert pm.e_n == log_negativity(rcm)[0]
            assert pm.s_12 == steering(rcm, "forward")
            assert pm.s_21 == steering(rcm, "backward")

    def test_steering_between_matches_pair_measures(self):
        # Per pair: a two-mode squeezed state with extra noise on the
        # pair's second mode steers unequally both ways; the third is vacuum.
        two_mode = tmsv_cm(1.0)
        two_mode[2:, 2:] += 0.05 * np.eye(2)
        for pair in ("am", "bm", "ab"):
            idx = [i for mode in pair for i in MODE_INDICES[mode]]
            v = 0.5 * np.eye(6)
            v[np.ix_(idx, idx)] = two_mode
            pm = pair_measures(v, pair)
            assert 0.0 < pm.s_12 < pm.s_21
            assert steering_between(v, pair[0], pair[1]) == pm.s_12
            assert steering_between(v, pair[1], pair[0]) == pm.s_21

    def test_overflowed_determinants_raise(self):
        # Entries near 1e80 overflow the 4x4 determinant (about 1e320).
        two_mode = 1e80 * tmsv_cm(1.0)
        v = 0.5 * np.eye(6)
        v[:4, :4] = two_mode  # modes a and m
        calls = [lambda: log_negativity(two_mode),
                 lambda: steering(two_mode, "forward"),
                 lambda: steering(two_mode, "backward"),
                 lambda: pair_measures(v, "am"),
                 lambda: steering_between(v, "a", "m"),
                 lambda: steering_between(v, "m", "a")]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for call in calls:
                with pytest.raises(NonFiniteDeterminantError) as exc:
                    call()
                assert exc.value.code == "nonfinite_determinant"

    def test_negative_eta_minus_squared_and_mode_determinants_fail(self):
        # det A = det B = -1, det C = 0, det V = 1: Sigma = -2 and a zero
        # discriminant make eta^-^2 = -1. Neither E_N nor steering exists.
        two_mode = np.diag([1.0, -1.0, 1.0, -1.0])
        v = np.diag([1.0, -1.0, 1.0, -1.0, 0.5, 0.5])
        modes = "negative single-mode determinant: det A = -1, det B = -1"
        for call, message in [
                (lambda: log_negativity(two_mode), "negative eta^-^2 -1"),
                (lambda: pair_measures(v, "am"), "negative eta^-^2 -1"),
                (lambda: steering(two_mode, "forward"), modes),
                (lambda: steering(two_mode, "backward"), modes)]:
            with pytest.raises(NonPhysicalCMError) as exc:
                call()
            assert exc.value.args == (message,)
        batch = PairBatch(v[None], ("am",), checked=("am",))
        assert type(batch.failures[0, 0]) is NonPhysicalCMError
        assert type(batch.steering_failures[0, 0]) is NonPhysicalCMError

    def test_a_negative_mode_determinant_stops_steering_and_the_pair(self):
        # det A = -1 < 0 < det V = 4, and eta^- = 1 exists: steering from
        # the first mode fails, and with it the pair's checked E_N.
        two_mode = np.array([[-1.0, 0, 1, 0], [0, 1, 0, -2],
                             [1, 0, 1, 0], [0, -2, 0, 2]])
        assert log_negativity(two_mode) == pytest.approx((0.0, 1.0))
        with pytest.raises(NonPhysicalCMError,
                           match="^negative single-mode determinant: det A = -1, "):
            steering(two_mode, "forward")
        v = 0.5 * np.eye(6)
        v[:4, :4] = two_mode
        batch = PairBatch(v[None], ("am",), checked=("am",))
        assert batch.failures[0, 0] is batch.steering_failures[0, 0]
        assert type(batch.failures[0, 0]) is NonPhysicalCMError
        with pytest.raises(NonPhysicalCMError):
            pair_measures(v, "am")

    def test_a_nan_on_either_side_of_the_cross_check_is_a_mismatch(
            self, monkeypatch):
        # With the symplectic route returning NaN, a checked pair fails;
        # an unchecked one stays unchecked.
        monkeypatch.setattr(measures, "_ppt_spectrum",
                            lambda sub: np.full(sub.shape[:-2] + (2,), np.nan))
        v = 0.5 * np.eye(6)
        v[:4, :4] = tmsv_cm(0.5)
        batch = PairBatch(v[None], ("am", "bm"), checked=("am",))
        assert type(batch.failures[0, 0]) is CrossCheckMismatchError
        assert batch.failures[0, 1] is None
        with pytest.raises(CrossCheckMismatchError):
            pair_measures(v, "am")

    def test_steering_implies_entanglement_on_random_states(self):
        rng = np.random.default_rng(101)
        for _ in range(300):
            rcm = random_physical_cm(rng, 2)
            s = max(steering(rcm, "forward"), steering(rcm, "backward"))
            if s > 1e-12:
                assert log_negativity(rcm)[0] > 0.0


# Index and constant tables shared by every call of the batch kernels.
SHARED_TABLES = [
    ("dynamics._DRIFT_TARGETS", dynamics._DRIFT_TARGETS),
    ("dynamics._DRIFT_SOURCES", dynamics._DRIFT_SOURCES),
    ("dynamics._DIFFUSION_ENTRIES", dynamics._DIFFUSION_ENTRIES),
    ("measures._PPT_FLIP", measures._PPT_FLIP),
    ("measures._I_OMEGA_2", measures._I_OMEGA_2),
    *((f"measures._HALF_I_OMEGA[{size}]", table)
      for size, table in measures._HALF_I_OMEGA.items()),
    *((f"measures._KRON_TARGETS[{k}]", table)
      for k, table in enumerate(measures._KRON_TARGETS)),
    *((f"measures._KRON_SOURCES[{k}]", table)
      for k, table in enumerate(measures._KRON_SOURCES)),
    *((f"measures._PAIR_ENTRIES[{pairs}]", table)
      for pairs, table in measures._PAIR_ENTRIES.items()),
    ("measures._BLOCK_ROWS", measures._BLOCK_ROWS),
    ("measures._BLOCK_COLS", measures._BLOCK_COLS),
]


def test_shared_tables_are_read_only():
    # A caller that wrote to a table would change every later result.
    for name, table in SHARED_TABLES:
        assert not table.flags.writeable, name
        with pytest.raises(ValueError, match="read-only"):
            table.flat[0] = table.flat[0]
