"""Steady-state covariance matrix and Gaussian entanglement/steering measures.

All measures are in nats; vacuum variance is 1/2, so the physicality bound is
V + i*Omega/2 >= 0 with Omega the direct-sum symplectic form.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .errors import (CrossCheckMismatchError, NonFiniteDeterminantError,
                     NonPhysicalCMError, ParameterError, SingularSolveError,
                     UnstableSystemError, alive, batch_of_one, lapack_stack,
                     no_failures, raise_failure, record_failures)
from .dynamics import (STABILITY_REL_TOL, DiffusionMatrix, QuadratureDrift,
                       read_only, stability)

#: Mode pairs by label, first listed mode first: photon-magnon, phonon-magnon,
#: photon-phonon.
PAIRS = ("am", "bm", "ab")

#: Quadrature rows of each single mode.
MODE_INDICES = {"a": (0, 1), "m": (2, 3), "b": (4, 5)}

#: Relative clamp for tiny negative discriminants in the eta^- formula.
DISCRIMINANT_CLAMP = 1e-12

#: Relative agreement demanded between the two eta^- routes.
CROSS_CHECK_TOL = 1e-9

#: Iterative refinement stops once the residual is below this multiple of
#: max|D|, after this many corrections, or when a correction does not help.
RESIDUAL_REL_TARGET = 1e-12
MAX_REFINEMENTS = 10

#: Partial transposition: flips the second mode's momentum.
_PPT_FLIP = read_only(np.diag([1.0, 1.0, 1.0, -1.0]))


def symplectic_form(n_modes: int) -> np.ndarray:
    """Direct sum of n copies of [[0,1],[-1,0]]."""
    omega = np.zeros((2 * n_modes, 2 * n_modes))
    first = np.arange(0, 2 * n_modes, 2)
    omega[first, first + 1] = 1.0
    omega[first + 1, first] = -1.0
    return omega


_I_OMEGA_2 = read_only(1j * symplectic_form(2))

#: i*Omega/2 of one, two and three modes, by matrix size.
_HALF_I_OMEGA = {2 * n: read_only(0.5j * symplectic_form(n)) for n in (1, 2, 3)}


@dataclass(frozen=True)
class CovarianceMatrix:
    """6x6 float64 steady-state covariance matrix with its quality certificates."""

    v: np.ndarray
    physicality_margin: float
    residual: float


@dataclass(frozen=True)
class PairMeasures:
    pair: str
    e_n: float
    s_12: float
    s_21: float
    eta_minus: float


def physicality_margins(v: np.ndarray) -> np.ndarray:
    """Smallest eigenvalue of V + i*Omega/2, for one matrix or a stack of
    matrices of one, two or three modes."""
    return np.linalg.eigvalsh(v + _HALF_I_OMEGA[v.shape[-1]]).min(axis=-1)


def physicality_margin(v: np.ndarray) -> float:
    """Smallest eigenvalue of V + i*Omega/2 of one, two or three modes."""
    return float(physicality_margins(_square(v, tuple(_HALF_I_OMEGA),
                                             "2x2, 4x4 or 6x6")))


def check_stable(max_lyapunov: float, stable: bool) -> None:
    """Raise UnstableSystemError unless the stability verdict is stable."""
    if not stable:
        raise UnstableSystemError(
            f"max Lyapunov exponent {max_lyapunov:.6g} not below "
            f"-{STABILITY_REL_TOL:g} omega_b")


# Entries of the flattened 36x36 Kronecker sum I (x) A + A (x) I that come
# from A: entry [(i, j), (i, l)] of I (x) A is A[j,l], entry [(i, j), (k, j)]
# of A (x) I is A[i,k]. Each tuple holds the I (x) A part, then the A (x) I part.
_i, _j, _k = np.indices((6, 6, 6)).reshape(3, -1)
_KRON_TARGETS = (read_only(np.ravel_multi_index((_i, _j, _i, _k), (6,) * 4)),
                 read_only(np.ravel_multi_index((_i, _j, _k, _j), (6,) * 4)))
_KRON_SOURCES = (read_only(_j * 6 + _k), read_only(_i * 6 + _k))
del _i, _j, _k


def _residual_matrices(al, vl, dl) -> np.ndarray:
    """A V + V A^T + D per point, in the precision of the inputs."""
    return al @ vl + vl @ al.swapaxes(-1, -2) + dl


def _max_abs(m: np.ndarray) -> np.ndarray:
    return np.abs(m).max(axis=(-2, -1)).astype(np.float64)


_NON_FINITE = "vectorized Lyapunov solve gave a non-finite solution"


def _check_solvable(eigenvalues: np.ndarray, d: np.ndarray,
                    failures: np.ndarray) -> None:
    """Fail each point whose Lyapunov system cannot have a finite solution:
    its D is not finite, or its eigenvalues pair up to (numerically) zero:
    on a stable real spectrum, the slowest one with its conjugate (or itself)."""
    tol = 1e-14 * np.maximum(np.abs(eigenvalues).max(axis=-1), 1e-300)
    record_failures(failures, 2.0 * np.abs(eigenvalues.real).min(axis=-1) < tol,
                    lambda k: SingularSolveError(
                        "eigenvalue pair sums to zero; Lyapunov system singular"))
    _check_diffusion(d, failures)


def _check_diffusion(d: np.ndarray, failures: np.ndarray) -> None:
    """Fail each point whose D is not finite, as no finite V solves it."""
    if not np.isfinite(d).all():  # occupations near 1e308 K or tiny omega
        record_failures(failures, ~np.isfinite(d).all(axis=(1, 2)),
                        lambda k: SingularSolveError(
                            "non-finite diffusion matrix; no finite solution"))


def lyapunov_batch(a: np.ndarray, d: np.ndarray, eigenvalues: np.ndarray,
                   failures: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Solve A V + V A^T = -D for N stable drifts at once.

    ``a`` and ``d`` are (N, 6, 6) and ``eigenvalues`` (N, 6) is the spectrum
    of each drift. The vectorized 36x36 systems
    (I (x) A + A (x) I) vec(V) = -vec(D) are solved densely, as one stack. A
    point gets a SingularSolveError when its eigenvalues pair up to
    (numerically) zero, its D is not finite, LAPACK finds its system
    singular, or its solution is not finite. Returns V (N, 6, 6) and the
    residual max|A V + V A^T + D| (N,), NaN at points that failed.
    """
    _check_solvable(eigenvalues, d, failures)
    live = np.flatnonzero(alive(failures))
    # Build the live systems only: masking a full stack of them copies it.
    a, d = a[live], d[live]
    flat = a.reshape(-1, 36)
    lhs = np.zeros((len(a), 36 * 36))
    lhs[:, _KRON_TARGETS[0]] = flat[:, _KRON_SOURCES[0]]
    lhs[:, _KRON_TARGETS[1]] += flat[:, _KRON_SOURCES[1]]
    lhs = lhs.reshape(-1, 36, 36)
    # (n, 36, 1) right-hand sides, which NumPy 1.x and 2.x read alike. They
    # are -vec(D) / s, with s the largest power of two up to max|D|: that is
    # exact, and no step of the solve overflows unless V itself does.
    d_max = np.abs(d).max(axis=(1, 2))[:, None, None]
    scale = np.ldexp(1.0, np.frexp(d_max)[1] - 1)
    rhs = -(d / scale).reshape(-1, 36, 1)
    x = lapack_stack(np.linalg.solve, (lhs, rhs), np.zeros(rhs.shape),
                     failures, live, SingularSolveError,
                     "vectorized Lyapunov solve failed")
    with np.errstate(over="ignore"):
        x = x * scale
    if not np.isfinite(x).all():  # a finite D can still overflow V
        bad = ~np.isfinite(x).all(axis=(1, 2))
        for k in live[bad].tolist():
            failures[k] = SingularSolveError(_NON_FINITE)
        x[bad] = 0.0  # not refined, but keeps their residual quiet
    solved = alive(failures[live])
    # Mixed-precision iterative refinement. The residual of any double-stored
    # solution bottoms out at eps*|A|*|V|, which near-marginal points push
    # above the certificate target, so the solution and its residual are
    # accumulated in extended precision while each correction re-solves the
    # same double-precision system, which LAPACK factors the same way again.
    al = a.astype(np.longdouble)
    vl = x.reshape(-1, 6, 6).astype(np.longdouble)
    vl = 0.5 * (vl + vl.swapaxes(-1, -2))
    resid = _residual_matrices(al, vl, d)
    res = _max_abs(resid)
    target = RESIDUAL_REL_TARGET * d_max[:, 0, 0]
    active = solved & ~(res <= target)
    for _ in range(MAX_REFINEMENTS):
        act = np.flatnonzero(active)
        if not act.size:
            break
        r = resid[act].astype(np.float64).reshape(-1, 36, 1)
        corr = np.linalg.solve(lhs[act], -r)
        corr = corr.reshape(-1, 6, 6).astype(np.longdouble)
        v_next = vl[act] + 0.5 * (corr + corr.swapaxes(-1, -2))
        resid_next = _residual_matrices(al[act], v_next, d[act])
        next_res = _max_abs(resid_next)
        better = ~(next_res >= res[act])
        vl[act[better]] = v_next[better]
        resid[act[better]] = resid_next[better]
        res[act[better]] = next_res[better]
        active[act] = better & ~(next_res <= target[act])
    v = np.full((len(failures), 6, 6), np.nan)
    residual = np.full(len(failures), np.nan)
    v[live[solved]] = vl[solved]
    residual[live[solved]] = res[solved]
    return v, residual


#: Unit noise P of the cavity, magnon and mechanical channels, which the
#: diagonal entries 0, 2 and 5 of D scale: D = D00 P_a + D22 P_m + D55 P_b.
_CHANNEL_NOISE = read_only([np.diag([1.0, 1, 0, 0, 0, 0]), np.diag([0.0, 0, 1, 1, 0, 0]),
                            np.diag([0.0, 0, 0, 0, 0, 1])])


def channel_covariances(a: np.ndarray, eigenvalues: np.ndarray) -> tuple:
    """Solutions W (3, 6, 6) of A W + W A^T = -P for each channel's unit
    noise P, with one drift ``a`` (6, 6) of spectrum ``eigenvalues`` (6,), as
    a batch of three of :func:`lyapunov_batch`. V is linear in D, so
    V = D00 W_a + D22 W_m + D55 W_b. Also returns the first channel's
    failure, or None."""
    failures = no_failures(3)
    w, _ = lyapunov_batch(np.broadcast_to(a, (3, 6, 6)), _CHANNEL_NOISE,
                          np.broadcast_to(eigenvalues, (3, 6)), failures)
    return w, next((f for f in failures if f is not None), None)


def combine_channels(channels: tuple, d: np.ndarray,
                     failures: np.ndarray) -> np.ndarray:
    """V (N, 6, 6) of N points with their own D (N, 6, 6) that share the
    drift of ``channels``. A point fails with a copy of the channels'
    failure, which covers their drift's spectrum, else where its D or V is
    not finite; V is NaN at failed points."""
    w, failure = channels
    if failure is not None:
        record_failures(failures, alive(failures),
                        lambda k: type(failure)(*failure.args))
    _check_diffusion(d, failures)
    with np.errstate(over="ignore", invalid="ignore"):
        v = np.einsum("nk,kij->nij", d[:, [0, 2, 5], [0, 2, 5]], w)
    record_failures(failures, ~np.isfinite(v).all(axis=(1, 2)),
                    lambda k: SingularSolveError(_NON_FINITE))
    v[~alive(failures)] = np.nan
    return v


def lyapunov_residuals(a: np.ndarray, v: np.ndarray, d: np.ndarray) -> np.ndarray:
    """max|A V + V A^T + D| (N,) of N solutions, in extended precision."""
    return _max_abs(_residual_matrices(a.astype(np.longdouble),
                                       v.astype(np.longdouble), d))


def solve_lyapunov(drift: QuadratureDrift,
                   diffusion: DiffusionMatrix) -> CovarianceMatrix:
    """Solve A V + V A^T = -D for the steady-state covariance matrix, as a
    batch of one of :func:`lyapunov_batch`. Raises UnstableSystemError when
    :func:`stability` calls the drift unstable and SingularSolveError when
    the system is singular.
    """
    report = stability(drift)
    check_stable(report.max_lyapunov, report.stable)
    v, residual = batch_of_one(lyapunov_batch, drift.a[None], diffusion.d[None],
                               np.asarray(report.eigenvalues)[None])
    return CovarianceMatrix(v=v[0], physicality_margin=physicality_margin(v[0]),
                            residual=float(residual[0]))


def _submatrix_entries(pair: str) -> list[list[int]]:
    """Flat indices into a 6x6 matrix of the pair's 4x4 submatrix."""
    rows = MODE_INDICES[pair[0]] + MODE_INDICES[pair[1]]
    return [[6 * i + j for j in rows] for i in rows]


#: Flat submatrix indices, shape (P, 4, 4), of each tuple of distinct pairs.
_PAIR_ENTRIES = {pairs: read_only([_submatrix_entries(pair) for pair in pairs])
                 for size in range(1, len(PAIRS) + 1)
                 for pairs in itertools.permutations(PAIRS, size)}

#: (pair, whether the source mode comes first) by (source, target) mode.
_PAIR_OF_MODES = {**{(pair[0], pair[1]): (pair, True) for pair in PAIRS},
                  **{(pair[1], pair[0]): (pair, False) for pair in PAIRS}}


def _matrix(cm: CovarianceMatrix | np.ndarray) -> np.ndarray:
    return _square(cm.v if isinstance(cm, CovarianceMatrix) else cm, (6,),
                   "6x6 three-mode")


#: Rows and columns of the 2x2 blocks A, B and C in a two-mode matrix.
_BLOCK_ROWS = read_only(np.array([[0, 1], [2, 3], [0, 1]])[:, :, None])
_BLOCK_COLS = read_only(np.array([[0, 1], [2, 3], [2, 3]])[:, None, :])


@np.errstate(all="ignore")
def _determinants(sub: np.ndarray) -> tuple[np.ndarray, ...]:
    """det A, det B, det C and det V of (..., 4, 4) two-mode matrices.

    The 2x2 determinants go through LAPACK like det V, not the closed form
    ad - bc: the eta^- formula cancels badly on unphysical (reversed-noise)
    states, where last-ulp changes in det A/B/C move E_N by up to 1e-5
    relative and flip cross-check verdicts.
    """
    blocks = np.linalg.det(sub[..., _BLOCK_ROWS, _BLOCK_COLS])
    return blocks[..., 0], blocks[..., 1], blocks[..., 2], np.linalg.det(sub)


@np.errstate(all="ignore")
def _log_negativity(dets, failures: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(E_N, eta^-) per matrix; records NonFiniteDeterminantError where the
    determinants overflow and NonPhysicalCMError where E_N does not exist:
    det V or the discriminant is negative beyond its clamp, or eta^-^2 is
    negative."""
    det_a, det_b, det_c, det_v = dets
    sigma = det_a + det_b - 2.0 * det_c
    disc = sigma**2 - 4.0 * det_v
    # Finite unless a determinant, Sigma^2 or 4 det V overflowed.
    record_failures(
        failures, ~np.isfinite(disc),
        lambda k: NonFiniteDeterminantError("Sigma^2 - 4 det V is not finite"))
    record_failures(
        failures, det_v < -DISCRIMINANT_CLAMP * np.maximum(det_a * det_b, 1.0),
        lambda k: NonPhysicalCMError(f"negative two-mode determinant {det_v[k]:.6g}"))
    record_failures(
        failures, disc < -DISCRIMINANT_CLAMP * sigma**2,
        lambda k: NonPhysicalCMError(
            f"discriminant {disc[k]:.6g} negative beyond clamp tolerance"))
    disc = np.where(disc < 0.0, 0.0, disc)
    eta2 = 0.5 * (sigma - np.sqrt(disc))
    record_failures(failures, ~(eta2 >= 0.0), lambda k: NonPhysicalCMError(
        f"negative eta^-^2 {eta2[k]:.6g}"))
    eta_minus = np.sqrt(eta2)
    return np.fmax(0.0, -np.log(2.0 * eta_minus)), eta_minus


@np.errstate(all="ignore")
def _steering(dets, failures: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Forward and backward steering per matrix; records
    NonFiniteDeterminantError where a determinant overflowed and
    NonPhysicalCMError where the two-mode determinant is not positive or a
    single-mode determinant is negative."""
    det_a, det_b, _, det_v = dets
    record_failures(failures, ~np.isfinite(dets).all(axis=0),
                    lambda k: NonFiniteDeterminantError(
                        "two-mode determinant is not finite"))
    record_failures(failures, det_v <= 0.0, lambda k: NonPhysicalCMError(
        f"non-positive two-mode determinant {det_v[k]:.6g}"))
    record_failures(failures, (det_a < 0.0) | (det_b < 0.0),
                    lambda k: NonPhysicalCMError(
                        f"negative single-mode determinant: det A = "
                        f"{det_a[k]:.6g}, det B = {det_b[k]:.6g}"))
    return (np.fmax(0.0, 0.5 * np.log(det_a / (4.0 * det_v))),
            np.fmax(0.0, 0.5 * np.log(det_b / (4.0 * det_v))))


def _ppt_spectrum(sub: np.ndarray) -> np.ndarray:
    """Symplectic eigenvalues, shape (..., 2), of partially transposed CMs."""
    v_tilde = _PPT_FLIP @ sub @ _PPT_FLIP
    eig = np.linalg.eigvals(_I_OMEGA_2 @ v_tilde)
    return np.sort(np.abs(eig.real), axis=-1)[..., ::2]  # each value appears as +/- a pair


def _square(v, sizes: tuple[int, ...], what: str) -> np.ndarray:
    """``v`` as a float64 n x n matrix with n in ``sizes``, or ParameterError."""
    v = np.asarray(v, dtype=np.float64)
    if v.ndim != 2 or v.shape[0] != v.shape[1] or v.shape[0] not in sizes:
        raise ParameterError(f"need a {what} matrix, got shape {v.shape}")
    return v


def _two_mode(v) -> np.ndarray:
    return _square(v, (4,), "4x4 two-mode")


def ppt_symplectic_eigenvalues(v: np.ndarray) -> np.ndarray:
    """Symplectic eigenvalues of a partially transposed 4x4 two-mode CM.

    Partial transposition flips the second mode's momentum; the symplectic
    eigenvalues are the moduli of the eigenvalues of i*Omega*V~ (each doubled).
    """
    return _ppt_spectrum(_two_mode(v))


def log_negativity(v: np.ndarray) -> tuple[float, float]:
    """(E_N, eta^-) of a 4x4 two-mode covariance matrix, E_N in nats.

    eta^- = 2^{-1/2} * sqrt(Sigma - sqrt(Sigma^2 - 4 det V)), with
    Sigma = det A + det B - 2 det C; E_N = max(0, -ln 2 eta^-).
    """
    e_n, eta_minus = batch_of_one(_log_negativity, _determinants(_two_mode(v)[None]))
    return float(e_n[0]), float(eta_minus[0])


def steering(v: np.ndarray, direction: str = "forward") -> float:
    """Directional Gaussian steering in nats of a 4x4 two-mode covariance
    matrix, blocks A (first mode), B (second mode) and C.

    "forward" is first mode -> second mode, using max(0, ln(det A / 4 det V)/2);
    "backward" swaps the roles and uses det B.
    """
    if direction not in ("forward", "backward"):
        raise ParameterError("direction must be 'forward' or 'backward'")
    s_12, s_21 = batch_of_one(_steering, _determinants(_two_mode(v)[None]))
    return float((s_12 if direction == "forward" else s_21)[0])


class PairBatch:
    """Entanglement and steering of P distinct mode pairs over N covariance
    matrices.

    Every measure is an (N, P) array and comes from one determinant set per
    pair. Steering needs only a positive two-mode determinant
    (``steering_failures``). The entanglement failures (``failures``) add the
    eta^- checks and the PPT cross-check, which run for the ``checked`` pairs
    only: E_N and eta^- of any other pair are unchecked.
    """

    def __init__(self, v: np.ndarray, pairs: tuple[str, ...],
                 checked: tuple[str, ...] = ()) -> None:
        for pair in pairs:
            check_pair(pair)
        sub = v.reshape(len(v), 36)[:, _PAIR_ENTRIES[pairs]]
        shape = sub.shape[:2]
        self.steering_failures = no_failures(shape)
        self.failures = no_failures(shape)
        dets = _determinants(sub)
        self.s_12, self.s_21 = _steering(dets, self.steering_failures)
        self.e_n, self.eta_minus = _log_negativity(dets, self.failures)
        # eta^- is computed twice: from the determinant formula and from the
        # partially transposed symplectic spectrum. The two must agree to
        # CROSS_CHECK_TOL relative.
        mask = alive(self.failures) & [pair in checked for pair in pairs]
        eta_ppt = np.full(shape, np.nan)
        eta_ppt[mask] = _ppt_spectrum(sub[mask])[:, 0]
        eta = self.eta_minus
        tol = CROSS_CHECK_TOL * np.maximum(np.abs(eta), 1e-30)
        # A NaN on either side is a mismatch.
        record_failures(
            self.failures, mask & ~(np.abs(eta_ppt - eta) <= tol),
            lambda k: CrossCheckMismatchError(
                f"eta^- mismatch: formula {float(eta[k])!r} vs "
                f"symplectic {float(eta_ppt[k])!r}"))
        record_failures(self.failures, ~alive(self.steering_failures),
                        lambda k: self.steering_failures[k])


def check_pair(pair: str) -> None:
    """Raise ParameterError unless ``pair`` is one of PAIRS."""
    if pair not in PAIRS:
        raise ParameterError(f"unknown pair {pair!r}; valid: {PAIRS}")


def pair_of_modes(source: str, target: str) -> tuple[str, bool]:
    """The pair label holding two modes, and whether ``source`` comes first."""
    if (source, target) not in _PAIR_OF_MODES:
        raise ParameterError(f"no mode pair {source!r}, {target!r}; "
                             "need two distinct modes of a, m, b")
    return _PAIR_OF_MODES[source, target]


def pair_measures(cm: CovarianceMatrix | np.ndarray, pair: str) -> PairMeasures:
    """Entanglement and both steering directions for one mode pair.

    eta^- is computed twice — from the determinant formula and from the
    partially transposed symplectic spectrum — and the two must agree to
    CROSS_CHECK_TOL relative.
    """
    batch = PairBatch(_matrix(cm)[None], (pair,), checked=(pair,))
    raise_failure(batch.failures)
    return PairMeasures(pair=pair, e_n=float(batch.e_n[0, 0]),
                        s_12=float(batch.s_12[0, 0]), s_21=float(batch.s_21[0, 0]),
                        eta_minus=float(batch.eta_minus[0, 0]))


def steering_between(cm: CovarianceMatrix | np.ndarray, source: str,
                     target: str) -> float:
    """Steering from ``source`` mode to ``target`` mode (modes 'a', 'm', 'b')."""
    pair, forward = pair_of_modes(source, target)
    batch = PairBatch(_matrix(cm)[None], (pair,))
    raise_failure(batch.steering_failures)
    return float((batch.s_12 if forward else batch.s_21)[0, 0])
