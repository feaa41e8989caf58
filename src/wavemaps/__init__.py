"""Wave fields with values on the unit sphere: midpoint scheme, computable
error bounds, and adaptive time stepping on a 2D finite-difference grid."""

from .adapt import EQUIDISTRIBUTE, UPDATED_TOLERANCE, AdaptiveController, decide
from .estimator import (EstimatorState, LocalBounds, SmallnessViolated, accumulate,
                        alpha_hat, check_smallness, delta_hat, local_quantities,
                        residual_bounds)
from .grid import (Grid2D, cross, dirichlet_form, dot, gradient_sq, integrate, laplacian,
                   lp_norm, magnitude, read_field, write_field, write_field_csv)
from .harness import (ConfigError, NonPositiveError, RunConfig, StepFloor, TimeMismatch,
                      Trajectory, energy_norm_error, eoc, run, run_eoc_study)
from .reconstruct import (DegenerateNorm, a_terms, eval_residuals, eval_ustar_wtilde,
                          eval_utilde)
from .scheme import (NonConvergence, SolverConfig, StepRecord, constant_data, energy,
                     initial_data, rotation_data, step)
