"""Steady-state Gaussian properties of a driven three-mode
cavity-magnomechanical system with a gain or lossy microwave cavity.

The public API re-exports the main types and operations of the submodules:
parameter records and phase classification (:mod:`magnomech.model`), the
classical working point (:mod:`magnomech.steady_state`), drift/diffusion and
stability (:mod:`magnomech.dynamics`), covariance-matrix measures
(:mod:`magnomech.measures`), and sweeps/presets (:mod:`magnomech.sweep`).
"""

from .config import build_params, default_config, load_config, merge_layers
from .dynamics import (DiffusionMatrix, QuadratureDrift, StabilityReport,
                       diffusion_from_params, diffusion_matrix,
                       drift_from_params, quadrature_drift, stability)
from .errors import (BracketInvalidError, ConfigError,
                     CrossCheckMismatchError, DegenerateDenominatorError,
                     EigenSolveError, MagnomechError, NonFiniteDeterminantError,
                     NonPhysicalCMError, ParameterError, SingularSolveError,
                     UnstableSystemError)
from .measures import (CovarianceMatrix, PairMeasures, log_negativity,
                       pair_measures, physicality_margin,
                       ppt_symplectic_eigenvalues, solve_lyapunov, steering,
                       steering_between, symplectic_form)
from .model import (GYROMAGNETIC_RATIO, PTPhase, PTRegime, SystemParams,
                    pt_classify, rabi_frequency, thermal_occupation,
                    two_mode_eigenfrequencies)
from .steady_state import WorkingPoint, working_point
from .sweep import (Axis, Series, SweepResult, SweepSpec, default_params,
                    evaluate_point, figure_preset, run_sweep,
                    vanishing_temperature)

__version__ = "0.1.0"
