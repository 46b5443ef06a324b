"""Invariant-measure functional estimation for ergodic diffusions.

The package simulates a fast ergodic diffusion with a scaled
Euler-Maruyama scheme, accumulates running functionals of the path, and
empirically verifies their three scaling limits: the root-epsilon law of
large numbers, the central limit theorem with covariance M_f, and the
moderate deviation principle with a quadratic action.
"""

from ._version import __version__
from .euler import (ControlFunction, SchedulePolicy, SimulationError,
                    StepSchedule, TrajectoryExplodedError, grid_floor,
                    replicate_stream, simulate_batch, simulate_euler,
                    simulate_reference)
from .harness import (ExperimentReport, ExperimentSpec, ks_distance,
                      mdp_closed_form_rate, run_clt_normality, run_experiment,
                      run_lln_rate, run_mdp_tail, run_riemann_vs_continuous,
                      run_schedule_violation)
from .models import (FunctionalSpec, InvariantDensity1D, ModelError, SdeModel,
                     builtin_model, centralize, invariant_density_1d,
                     validate_conditions)
from .poisson1d import (ExponentSet, PoissonSolution, audit_mdp_exponents,
                        exponents_from_solution, fit_tail_exponents,
                        multidim_exponent_bounds, solve_poisson_1d)
from .quadrature import QuadratureError
from .variance import (CovarianceCurve, RatePath, mf_autocorrelation_form,
                       mf_gradient_form, optimal_control, rate_function)
