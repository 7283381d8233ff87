"""Exception types shared across the package.

Each class carries the short ``code`` that sweeps write into a failed point's
``error`` cell.

Batched kernels keep one entry per point in an object array of failures:
None while the point is fine, else the exception that stopped it. A point
that has failed is skipped by every later stage, and a scalar call is a
batch of one that raises its point's failure: :func:`batch_of_one`.

Kernels run under their caller's ``np.errstate(all="ignore")``: a value
that overflows fails its point's checks instead of warning. A stage runs its
rule-by-rule :func:`record_failures` passes, which give each failed point the
code and message of the first rule it breaks, only when one cheap test of
the whole batch (:func:`all_alive`, finite, in range) fails.

Stored exceptions carry no traceback. The cyclic garbage collector cannot see
into NumPy object arrays, so a traceback whose frames hold the array that
holds the exception would never be freed.
"""

import numpy as np


class MagnomechError(Exception):
    """Base class for all errors raised by this package."""
    code = "error"


class ParameterError(MagnomechError, ValueError):
    """Invalid or inconsistent physical parameters."""
    code = "parameter_error"


class ConfigError(MagnomechError, ValueError):
    """Malformed parameter file or override string."""
    code = "config_error"


class DegenerateDenominatorError(MagnomechError):
    """Linear response denominator vanished (parametric resonance)."""
    code = "degenerate_denominator"


class UnstableSystemError(MagnomechError):
    """Drift matrix has a non-negative Lyapunov exponent; no steady state."""
    code = "unstable"


class SingularSolveError(MagnomechError):
    """The vectorized Lyapunov system is numerically singular."""
    code = "singular_solve"


class EigenSolveError(MagnomechError):
    """Dense eigenvalue computation failed to converge."""
    code = "eigen_solve"


class NonPhysicalCMError(MagnomechError):
    """Covariance matrix violates positivity beyond tolerance."""
    code = "nonphysical_cm"


class NonFiniteDeterminantError(MagnomechError):
    """A two-mode determinant, or eta^- built from them, overflowed."""
    code = "nonfinite_determinant"


class CrossCheckMismatchError(MagnomechError):
    """Two independent routes to the same quantity disagree."""
    code = "cross_check_mismatch"


class BracketInvalidError(MagnomechError):
    """Bisection bracket does not straddle the sought boundary."""
    code = "bracket_invalid"


def no_failures(shape) -> np.ndarray:
    """Failure array of a batch of the given shape, none failed yet."""
    return np.empty(shape, dtype=object)


def alive(failures: np.ndarray) -> np.ndarray:
    """Mask of the points that have not failed."""
    return np.equal(failures, None)


def all_alive(failures: np.ndarray) -> bool:
    """Whether no point has failed (a stored exception counts as true)."""
    return not np.count_nonzero(failures)


def record_failures(failures: np.ndarray, mask, make) -> None:
    """Store ``make(k)`` at each index k of ``mask`` that has not failed yet."""
    if not np.count_nonzero(mask):
        return
    for k in zip(*np.nonzero(mask)):
        if failures[k] is None:
            failures[k] = make(k)


def lapack_stack(func, stacks: tuple, out, failures, points, error, what):
    """``func(*stacks)``; entry j is point ``points[j]``. Only if LAPACK
    rejects the stacks does ``func`` run point by point, into ``out``: each
    point it rejects fails with ``error(f"{what}: {reason}")``."""
    try:
        return func(*stacks)
    except np.linalg.LinAlgError:
        for j, k in enumerate(points.tolist()):
            try:
                out[j] = func(*(stack[j] for stack in stacks))
            except np.linalg.LinAlgError as exc:
                failures[k] = error(f"{what}: {exc}")
        return out


def raise_failure(failures: np.ndarray) -> None:
    """Raise (a copy of) the failure of a batch of one, if any."""
    failure = failures.flat[0]
    if failure is not None:
        raise type(failure)(*failure.args)


def batch_of_one(kernel, *args):
    """``kernel(*args, failures)`` on a fresh failure array of one point: its
    result, unless that point failed, when (a copy of) its failure is raised.
    The kernel runs with NumPy's floating-point warnings off, as in a sweep."""
    failures = no_failures(1)
    with np.errstate(all="ignore"):
        result = kernel(*args, failures)
    raise_failure(failures)
    return result
