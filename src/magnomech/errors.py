"""Exception types shared across the package.

Each class carries the short ``code`` that sweeps write into a failed point's
``error`` cell.
"""


class MagnomechError(Exception):
    """Base class for all errors raised by this package."""
    code = "error"


class ParameterError(MagnomechError, ValueError):
    """Invalid or inconsistent physical parameters."""
    code = "parameter_error"


class ConfigError(MagnomechError, ValueError):
    """Malformed parameter file or override string."""


class DegenerateDenominatorError(MagnomechError):
    """Linear response denominator vanished (parametric resonance)."""
    code = "degenerate_denominator"


class NonConvergenceError(MagnomechError):
    """Fixed-point iteration failed to converge (bistable or oscillatory)."""
    code = "non_convergence"


class UnstableSystemError(MagnomechError):
    """Drift matrix has a non-negative Lyapunov exponent; no steady state."""


class SingularSolveError(MagnomechError):
    """The vectorized Lyapunov system is numerically singular."""
    code = "singular_solve"


class EigenSolveError(MagnomechError):
    """Dense eigenvalue computation failed to converge."""
    code = "eigen_solve"


class NonPhysicalCMError(MagnomechError):
    """Covariance matrix violates positivity beyond tolerance."""
    code = "nonphysical_cm"


class CrossCheckMismatchError(MagnomechError):
    """Two independent routes to the same quantity disagree."""
    code = "cross_check_mismatch"


class BracketInvalidError(MagnomechError):
    """Bisection bracket does not straddle the sought boundary."""
