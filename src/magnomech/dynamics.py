"""Drift and diffusion matrices of the linearized fluctuations, and stability.

Quadrature basis order: (dX1, dX2, dY1, dY2, dx, dp) — cavity amplitude and
phase, magnon amplitude and phase, mechanical position and momentum. Vacuum
variance is 1/2 in this convention.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import model as _model
from .errors import (EigenSolveError, MagnomechError, ParameterError, alive,
                     all_alive, batch_of_one, lapack_stack, record_failures)
from .model import SystemParams
from .steady_state import WorkingPoint

GAIN_NOISE_MODES = ("vacuum", "reversed")

#: A drift is stable iff its largest eigenvalue real part lies below
#: -STABILITY_REL_TOL * omega_b. This is the only stability verdict.
STABILITY_REL_TOL = 1e-9


def check_gain_noise(gain_noise: str) -> None:
    """Raise ParameterError unless ``gain_noise`` is one of GAIN_NOISE_MODES."""
    if gain_noise not in GAIN_NOISE_MODES:
        raise ParameterError(f"gain_noise must be one of {GAIN_NOISE_MODES}")


def read_only(values) -> np.ndarray:
    """A new array of ``values`` that cannot be written to: the index and
    constant tables that the batch kernels share between calls."""
    table = np.array(values)
    table.flags.writeable = False
    return table


@dataclass(frozen=True)
class QuadratureDrift:
    """6x6 real drift matrix of the quadrature fluctuations."""

    a: np.ndarray

    def __post_init__(self) -> None:
        if self.a.shape != (6, 6):
            raise ParameterError("drift matrix must be 6x6")


@dataclass(frozen=True)
class DiffusionMatrix:
    """6x6 diagonal diffusion matrix (position row exactly zero)."""

    d: np.ndarray

    def __post_init__(self) -> None:
        if self.d.shape != (6, 6):
            raise ParameterError("diffusion matrix must be 6x6")


@dataclass(frozen=True)
class StabilityReport:
    eigenvalues: np.ndarray
    max_lyapunov: float
    stable: bool


#: Nonzero drift entries as (row, column, input, sign), with the inputs in
#: the argument order of :func:`drift_matrices`.
_DRIFT_ENTRIES = (
    (0, 0, 2, 1), (1, 1, 2, 1), (0, 1, 0, 1), (1, 0, 0, -1),
    (0, 3, 6, 1), (1, 2, 6, -1), (2, 1, 6, 1), (3, 0, 6, -1),
    (2, 2, 3, -1), (3, 3, 3, -1), (2, 3, 1, 1), (3, 2, 1, -1),
    (2, 4, 7, -1), (4, 5, 5, 1), (5, 3, 7, 1), (5, 4, 5, -1), (5, 5, 4, -1))

#: Flat drift entry of each nonzero, and its source among (inputs, -inputs).
_DRIFT_TARGETS = read_only([6 * row + col for row, col, _, _ in _DRIFT_ENTRIES])
_DRIFT_SOURCES = read_only([source + 8 * (sign < 0)
                            for _, _, source, sign in _DRIFT_ENTRIES])


def drift_matrices(delta_a, delta_m_eff, kappa_a, kappa_m, gamma_b, omega_b,
                   g_ma, g_eff) -> np.ndarray:
    """Drift matrices of numbers, shape (6, 6), or of N-vectors of points,
    shape (N, 6, 6)."""
    values = np.array((delta_a, delta_m_eff, kappa_a, kappa_m, gamma_b,
                       omega_b, g_ma, g_eff), dtype=np.float64)
    a = np.zeros(values.shape[1:] + (36,))
    a[..., _DRIFT_TARGETS] = np.concatenate((values, -values))[_DRIFT_SOURCES].T
    return a.reshape(values.shape[1:] + (6, 6))


def quadrature_drift(delta_a: float, delta_m_eff: float, kappa_a: float,
                     kappa_m: float, gamma_b: float, omega_b: float,
                     g_ma: float, g_eff: float) -> QuadratureDrift:
    """Drift matrix of the linearized dynamics in the quadrature basis."""
    # Every input is an entry of the drift, so the drift is finite iff they are.
    a = drift_matrices(delta_a, delta_m_eff, kappa_a, kappa_m, gamma_b, omega_b,
                       g_ma, g_eff)
    if not np.isfinite(a).all():
        raise ParameterError("quadrature_drift: non-finite input")
    return QuadratureDrift(a=a)


def drift_from_params(params: SystemParams, wp: WorkingPoint) -> QuadratureDrift:
    return quadrature_drift(params.delta_a, wp.delta_m_eff, params.kappa_a,
                            params.kappa_m, params.gamma_b, params.omega_b,
                            params.g_ma, wp.G)


#: Flat entries of the diffusion matrix's nonzero diagonal: the position row
#: (4, 4) is exactly zero.
_DIFFUSION_ENTRIES = read_only([0, 7, 14, 21, 35])


def diffusion_matrices(kappa_a, kappa_m, gamma_b, n_a, n_m, n_b,
                       gain_noise: str = "vacuum") -> np.ndarray:
    """Diffusion matrices of numbers, shape (6, 6), or of N-vectors of
    points, shape (N, 6, 6)."""
    check_gain_noise(gain_noise)
    cavity = np.abs(kappa_a) if gain_noise == "vacuum" else -kappa_a
    rates = np.array((cavity, cavity, kappa_m, kappa_m, gamma_b), dtype=np.float64)
    occupations = np.array((n_a, n_a, n_m, n_m, n_b), dtype=np.float64)
    d = np.zeros(rates.shape[1:] + (36,))
    d[..., _DIFFUSION_ENTRIES] = (rates * (2.0 * occupations + 1.0)).T
    return d.reshape(rates.shape[1:] + (6, 6))


@np.errstate(over="ignore", invalid="ignore")  # a non-finite D fails later
def diffusion_matrix(kappa_a: float, kappa_m: float, gamma_b: float,
                     n_a: float, n_m: float, n_b: float,
                     gain_noise: str = "vacuum") -> DiffusionMatrix:
    """Diagonal diffusion matrix for the three input noise channels.

    The cavity channel uses |kappa_a|*(2*n_a+1) by default ("vacuum"): a gain
    medium injects noise at least at the vacuum-fluctuation rate, keeping the
    diffusion positive semidefinite. ``gain_noise="reversed"`` instead treats
    a gain cavity as a time-reversed loss channel with cavity entries
    -kappa_a*(2*n_a+1); for kappa_a > 0 those entries are negative, and the
    resulting covariance matrices can violate the uncertainty bound. The
    reversed mode exists only to reproduce published curves computed that way.
    """
    if min(n_a, n_m, n_b) < 0.0:
        raise ParameterError("occupations must be non-negative")
    return DiffusionMatrix(d=diffusion_matrices(
        kappa_a, kappa_m, gamma_b, n_a, n_m, n_b, gain_noise))


def diffusion_batch(columns: dict, rows: np.ndarray, gain_noise: str,
                    failures: np.ndarray) -> np.ndarray:
    """Diffusion matrices (len(rows), 6, 6) of the points ``rows`` of a batch,
    ``failures`` one per row. Each takes the thermal occupations of the cavity,
    the magnon and the phonon, in that order; the first that raises fails it."""
    omegas = [columns[name].tolist() for name in ("omega_a", "omega_m", "omega_b")]
    temperatures = columns["temperature"].tolist()
    occupations = []
    for i, k in enumerate(rows.tolist()):
        try:
            occupations.append([_model.thermal_occupation(omega[k], temperatures[k])
                                for omega in omegas])
        except MagnomechError as exc:
            failures[i] = exc.with_traceback(None)
            occupations.append([0.0, 0.0, 0.0])
    rates = (columns[name][rows] for name in ("kappa_a", "kappa_m", "gamma_b"))
    return diffusion_matrices(*rates, *np.array(occupations).T, gain_noise)


def diffusion_from_params(params: SystemParams,
                          gain_noise: str = "vacuum") -> DiffusionMatrix:
    """A batch of one of :func:`diffusion_batch`."""
    d = batch_of_one(diffusion_batch, params.columns(), np.arange(1), gain_noise)
    return DiffusionMatrix(d=d[0])


def stability_batch(a: np.ndarray, failures: np.ndarray
                    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Eigenvalues (N, 6), maximal Lyapunov exponents and verdicts of N drifts.

    Stable iff the largest eigenvalue real part is below
    -STABILITY_REL_TOL * omega_b, with omega_b read from each drift's (4, 5)
    entry. Points that already failed are skipped (NaN); an eigenvalue
    failure is recorded.
    """
    every = all_alive(failures)
    live = np.arange(len(a)) if every else np.flatnonzero(alive(failures))
    eigenvalues = np.full(a.shape[:-1], np.nan, dtype=complex)
    eigenvalues[live] = lapack_stack(
        np.linalg.eigvals, (a if every else a[live],), eigenvalues[live],
        failures, live, EigenSolveError, "eigenvalue computation failed")
    if not (all_alive(failures) and np.isfinite(eigenvalues.sum())):
        record_failures(failures, ~np.isfinite(eigenvalues).all(axis=-1),
                        lambda k: EigenSolveError(
                            "eigenvalue computation returned non-finite values"))
    max_lyapunov = eigenvalues.real.max(axis=-1)
    return (eigenvalues, max_lyapunov,
            max_lyapunov < -(STABILITY_REL_TOL * a[:, 4, 5]))


def stability(drift: QuadratureDrift) -> StabilityReport:
    """Eigenvalues, maximal Lyapunov exponent and the stability verdict of
    :func:`stability_batch`."""
    eigenvalues, max_lyapunov, stable = batch_of_one(stability_batch, drift.a[None])
    return StabilityReport(eigenvalues=eigenvalues[0],
                           max_lyapunov=float(max_lyapunov[0]),
                           stable=bool(stable[0]))
