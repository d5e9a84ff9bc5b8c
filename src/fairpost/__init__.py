"""Post-process regression scores into fairness-constrained randomized classifiers."""

from .core import (
    BaseRates,
    Cell,
    CellDistribution,
    FairnessNotion,
    GroupSystem,
    MixtureClassifier,
    ThresholdRule,
    aggregate_cells,
    build_cells,
    snap_to_grid,
)
from .metrics import (
    RateReport,
    base_rates,
    constraint_lhs,
    constraint_vector,
    surrogate_error,
    surrogate_group_rate,
    true_rates,
)
from .solver import (
    BudgetExceededError,
    DualState,
    SolveResult,
    SolverConfig,
    TrajectoryRecord,
    best_response,
    dual_gradient,
    iteration_budget,
    lagrangian_value,
    project_l1,
    run,
    run_many,
    run_sampled,
    sample_size,
)
from .multical import (
    CalibrationResult,
    CheckFunction,
    audit,
    brier,
    calibrate,
    default_checks,
    threshold_eval,
)
from .oracle import (
    InfeasibleError,
    OracleSolution,
    PointwiseArgmin,
    enumerate_optimum,
    pointwise_argmin,
    simplex_solve,
)
from .synth import SplitMix64, SynthSpec, gen_instance
from .estimators import (
    FairThresholdPostprocessor,
    JointMulticalibrator,
    NotFittedError,
)

__version__ = "0.1.0"

__all__ = [
    "BaseRates", "Cell", "CellDistribution", "FairnessNotion", "GroupSystem",
    "MixtureClassifier", "ThresholdRule", "aggregate_cells", "build_cells",
    "snap_to_grid",
    "RateReport", "base_rates", "constraint_lhs", "constraint_vector",
    "surrogate_error", "surrogate_group_rate", "true_rates",
    "BudgetExceededError", "DualState", "SolveResult", "SolverConfig",
    "TrajectoryRecord", "best_response", "dual_gradient", "iteration_budget",
    "lagrangian_value", "project_l1", "run", "run_many", "run_sampled", "sample_size",
    "CalibrationResult", "CheckFunction", "audit", "brier",
    "calibrate", "default_checks", "threshold_eval",
    "InfeasibleError", "OracleSolution", "PointwiseArgmin", "enumerate_optimum",
    "pointwise_argmin", "simplex_solve",
    "SplitMix64", "SynthSpec", "gen_instance",
    "FairThresholdPostprocessor", "JointMulticalibrator", "NotFittedError",
    "__version__",
]
