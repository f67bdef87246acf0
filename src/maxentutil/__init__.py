"""Maximum-entropy densities, utility functions, and risk-aversion profiles.

Pin or bracket a handful of moments and get back the least-committed
distribution consistent with them; do the same with a utility function's
increments and get back the least-committed preferences consistent with a
decision maker's answers.
"""

from .core import (
    ActiveSetCycleError,
    ConstraintFunction,
    ConstraintSpec,
    InfeasibleError,
    MaxentError,
    MaxEntSolution,
    SolverDiagnostics,
    Support,
    ValidationError,
    validate_problem,
)
from .entropy import (
    EntropyValue,
    differential_entropy,
    discrete_entropy,
    entropy_of_increments,
)
from .risk import (
    RiskAversionProfile,
    risk_aversion_analytic,
    risk_aversion_numeric,
)
from .solver import (
    SolveOptions,
    dual_gradient,
    dual_hessian,
    dual_value,
    log_partition,
    moments,
    solve_equality,
    solve_interval,
)
from .utility import (
    UtilityCurve,
    UtilityIncrementVector,
    UtilityVector,
    classify_family,
    cumulate,
    curve_to_density,
    density_to_curve,
    increments,
    maxent_utility,
    maxent_utility_from_assessments,
    utility_volume,
)

__version__ = "0.1.0"

__all__ = [
    "ActiveSetCycleError",
    "ConstraintFunction",
    "ConstraintSpec",
    "EntropyValue",
    "InfeasibleError",
    "MaxentError",
    "MaxEntSolution",
    "RiskAversionProfile",
    "SolveOptions",
    "SolverDiagnostics",
    "Support",
    "UtilityCurve",
    "UtilityIncrementVector",
    "UtilityVector",
    "ValidationError",
    "classify_family",
    "cumulate",
    "curve_to_density",
    "density_to_curve",
    "differential_entropy",
    "discrete_entropy",
    "dual_gradient",
    "dual_hessian",
    "dual_value",
    "entropy_of_increments",
    "increments",
    "log_partition",
    "maxent_utility",
    "maxent_utility_from_assessments",
    "moments",
    "risk_aversion_analytic",
    "risk_aversion_numeric",
    "solve_equality",
    "solve_interval",
    "utility_volume",
    "validate_problem",
    "__version__",
]
