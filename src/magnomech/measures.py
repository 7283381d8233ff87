"""Steady-state covariance matrix and Gaussian entanglement/steering measures.

All measures are in nats; vacuum variance is 1/2, so the physicality bound is
V + i*Omega/2 >= 0 with Omega the direct-sum symplectic form.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .errors import (CrossCheckMismatchError, NonPhysicalCMError,
                     ParameterError, SingularSolveError, UnstableSystemError)
from .dynamics import DiffusionMatrix, QuadratureDrift, StabilityReport, stability

#: Mode pairs by label, first listed mode first: photon-magnon, phonon-magnon,
#: photon-phonon.
PAIRS = ("am", "bm", "ab")

#: Quadrature rows of each single mode.
MODE_INDICES = {"a": (0, 1), "m": (2, 3), "b": (4, 5)}

#: Relative clamp for tiny negative discriminants in the eta^- formula.
DISCRIMINANT_CLAMP = 1e-12

#: Relative agreement demanded between the two eta^- routes.
CROSS_CHECK_TOL = 1e-9

_J2 = np.array([[0.0, 1.0], [-1.0, 0.0]])


def symplectic_form(n_modes: int) -> np.ndarray:
    """Direct sum of n copies of [[0,1],[-1,0]]."""
    return np.kron(np.eye(n_modes), _J2)


@dataclass(frozen=True)
class CovarianceMatrix:
    """6x6 float64 steady-state covariance matrix with its quality certificates."""

    v: np.ndarray
    physicality_margin: float
    residual: float

    @property
    def physical(self) -> bool:
        return self.physicality_margin >= -1e-9


@dataclass(frozen=True)
class ReducedCM:
    """4x4 two-mode covariance matrix split into its 2x2 blocks."""

    block_a: np.ndarray
    block_b: np.ndarray
    block_c: np.ndarray
    pair: str

    @property
    def matrix(self) -> np.ndarray:
        return np.block([[self.block_a, self.block_c],
                         [self.block_c.T, self.block_b]])


@dataclass(frozen=True)
class PairMeasures:
    pair: str
    e_n: float
    s_12: float
    s_21: float
    eta_minus: float


def physicality_margin(v: np.ndarray) -> float:
    """Smallest eigenvalue of V + i*Omega/2 as a Hermitian matrix."""
    v = np.asarray(v, dtype=np.float64)
    n_modes = v.shape[0] // 2
    herm = v + 0.5j * symplectic_form(n_modes)
    return float(np.linalg.eigvalsh(herm).min().real)


def solve_lyapunov(drift: QuadratureDrift, diffusion: DiffusionMatrix,
                   stability_tol: float = 0.0,
                   stability_report: StabilityReport | None = None) -> CovarianceMatrix:
    """Solve A V + V A^T = -D for the steady-state covariance matrix.

    Assembles the vectorized 36x36 system (I (x) A + A (x) I) vec(V) = -vec(D)
    and solves it densely. Raises UnstableSystemError when the drift has a
    non-negative Lyapunov exponent and SingularSolveError when an eigenvalue
    pair sums to (numerically) zero.
    """
    report = stability_report if stability_report is not None \
        else stability(drift, stability_tol)
    if not report.stable:
        raise UnstableSystemError(
            f"max Lyapunov exponent {report.max_lyapunov:.6g} >= -{stability_tol:.3g}")
    a, d = drift.a, diffusion.d
    eig = report.eigenvalues
    pair_sums = np.abs(eig[:, None] + eig[None, :])
    scale = max(np.abs(eig).max(), 1e-300)
    if pair_sums.min() < 1e-14 * scale:
        raise SingularSolveError("eigenvalue pair sums to zero; Lyapunov system singular")
    lhs = np.kron(np.eye(6), a) + np.kron(a, np.eye(6))
    try:
        lu, piv = scipy.linalg.lu_factor(lhs)
        vec = scipy.linalg.lu_solve((lu, piv), -d.reshape(36))
    except (scipy.linalg.LinAlgError, ValueError) as exc:
        raise SingularSolveError(f"vectorized Lyapunov solve failed: {exc}") from exc
    v = vec.reshape(6, 6)
    # Mixed-precision iterative refinement. The residual of any double-stored
    # solution bottoms out at eps*|A|*|V|, which near-marginal points push
    # above the certificate target, so the solution and its residual are
    # accumulated in extended precision while the corrections reuse the
    # double-precision LU factorization.
    al = a.astype(np.longdouble)
    dl = d.astype(np.longdouble)
    vl = v.astype(np.longdouble)
    vl = 0.5 * (vl + vl.T)
    residual = float(np.abs(al @ vl + vl @ al.T + dl).max())
    target = 1e-12 * float(np.abs(d).max())
    for _ in range(10):
        if residual <= target:
            break
        r = (al @ vl + vl @ al.T + dl).astype(np.float64)
        try:
            corr = scipy.linalg.lu_solve((lu, piv), -r.reshape(36)).reshape(6, 6)
        except (scipy.linalg.LinAlgError, ValueError) as exc:
            raise SingularSolveError(f"refinement solve failed: {exc}") from exc
        corr = corr.astype(np.longdouble)
        v_next = vl + 0.5 * (corr + corr.T)
        next_residual = float(np.abs(al @ v_next + v_next @ al.T + dl).max())
        if next_residual >= residual:
            break
        vl, residual = v_next, next_residual
    v = vl.astype(np.float64)
    return CovarianceMatrix(v=v, physicality_margin=physicality_margin(v),
                            residual=residual)


def reduce_cm(cm: CovarianceMatrix | np.ndarray, pair: str) -> ReducedCM:
    """Extract the 4x4 principal submatrix of one mode pair.

    The first listed mode of the pair label becomes block A (the steering
    party of ``s_12``).
    """
    if pair not in PAIRS:
        raise ParameterError(f"unknown pair {pair!r}; valid: {PAIRS}")
    return reduce_modes(cm, pair[0], pair[1])


def reduce_modes(cm: CovarianceMatrix | np.ndarray, first: str,
                 second: str) -> ReducedCM:
    """Two-mode reduction with an explicit mode order (modes 'a', 'm', 'b')."""
    for mode in (first, second):
        if mode not in MODE_INDICES:
            raise ParameterError(f"unknown mode {mode!r}; valid: a, m, b")
    if first == second:
        raise ParameterError("reduce_modes needs two distinct modes")
    v = cm.v if isinstance(cm, CovarianceMatrix) else cm
    v = np.asarray(v, dtype=np.float64)
    idx = np.array(MODE_INDICES[first] + MODE_INDICES[second])
    sub = v[np.ix_(idx, idx)]
    return ReducedCM(block_a=sub[:2, :2].copy(), block_b=sub[2:, 2:].copy(),
                     block_c=sub[:2, 2:].copy(), pair=first + second)


def _determinants(rcm: ReducedCM) -> tuple[float, float, float, float]:
    det_a = float(np.linalg.det(rcm.block_a))
    det_b = float(np.linalg.det(rcm.block_b))
    det_c = float(np.linalg.det(rcm.block_c))
    det_v = float(np.linalg.det(rcm.matrix))
    return det_a, det_b, det_c, det_v


def ppt_symplectic_eigenvalues(rcm: ReducedCM) -> np.ndarray:
    """Symplectic eigenvalues of the partially transposed two-mode CM.

    Partial transposition flips the second mode's momentum; the symplectic
    eigenvalues are the moduli of the eigenvalues of i*Omega*V~ (each doubled).
    """
    flip = np.diag([1.0, 1.0, 1.0, -1.0])
    v_tilde = flip @ rcm.matrix @ flip
    eig = np.linalg.eigvals(1j * symplectic_form(2) @ v_tilde)
    return np.sort(np.abs(eig.real))[::2]  # each value appears as +/- a pair


def log_negativity(rcm: ReducedCM) -> tuple[float, float]:
    """(E_N, eta^-) of a two-mode covariance matrix, E_N in nats.

    eta^- = 2^{-1/2} * sqrt(Sigma - sqrt(Sigma^2 - 4 det V)), with
    Sigma = det A + det B - 2 det C; E_N = max(0, -ln 2 eta^-).
    """
    det_a, det_b, det_c, det_v = _determinants(rcm)
    if det_v < -DISCRIMINANT_CLAMP * max(det_a * det_b, 1.0):
        raise NonPhysicalCMError(f"negative two-mode determinant {det_v:.6g}")
    sigma = det_a + det_b - 2.0 * det_c
    disc = sigma**2 - 4.0 * det_v
    if disc < 0.0:
        if disc < -DISCRIMINANT_CLAMP * sigma**2:
            raise NonPhysicalCMError(
                f"discriminant {disc:.6g} negative beyond clamp tolerance")
        disc = 0.0
    eta_minus = np.sqrt(0.5 * (sigma - np.sqrt(disc)))
    e_n = max(0.0, -np.log(2.0 * eta_minus))
    return float(e_n), float(eta_minus)


def steering(rcm: ReducedCM, direction: str = "forward") -> float:
    """Directional Gaussian steering in nats.

    "forward" is first mode -> second mode, using max(0, ln(det A / 4 det V)/2);
    "backward" swaps the roles and uses det B.
    """
    if direction not in ("forward", "backward"):
        raise ParameterError("direction must be 'forward' or 'backward'")
    det_a, det_b, _, det_v = _determinants(rcm)
    if det_v <= 0.0:
        raise NonPhysicalCMError(f"non-positive two-mode determinant {det_v:.6g}")
    numerator = det_a if direction == "forward" else det_b
    return float(max(0.0, 0.5 * np.log(numerator / (4.0 * det_v))))


def pair_measures(cm: CovarianceMatrix | np.ndarray, pair: str) -> PairMeasures:
    """Entanglement and both steering directions for one mode pair.

    eta^- is computed twice — from the determinant formula and from the
    partially transposed symplectic spectrum — and the two must agree to
    CROSS_CHECK_TOL relative.
    """
    rcm = reduce_cm(cm, pair)
    e_n, eta_minus = log_negativity(rcm)
    eta_ppt = float(ppt_symplectic_eigenvalues(rcm)[0])
    if abs(eta_ppt - eta_minus) > CROSS_CHECK_TOL * max(abs(eta_minus), 1e-30):
        raise CrossCheckMismatchError(
            f"eta^- mismatch: formula {eta_minus!r} vs symplectic {eta_ppt!r}")
    return PairMeasures(pair=pair, e_n=e_n,
                        s_12=steering(rcm, "forward"),
                        s_21=steering(rcm, "backward"),
                        eta_minus=eta_minus)


def steering_between(cm: CovarianceMatrix | np.ndarray, source: str,
                     target: str) -> float:
    """Steering from ``source`` mode to ``target`` mode (modes 'a', 'm', 'b')."""
    return steering(reduce_modes(cm, source, target), "forward")
