"""Post-process regression scores into fairness-constrained randomized classifiers."""

from .core import (
    BaseRates,
    CellDistribution,
    FairnessNotion,
    GroupSystem,
    MixtureClassifier,
    aggregate_cells,
    build_cells,
)
from .metrics import (
    RateReport,
    base_rates,
    constraint_vector,
    surrogate_error,
    true_rates,
)
from .solver import (
    BudgetExceededError,
    SolveResult,
    SolverConfig,
    TrajectoryRecord,
    duality_gap,
    iteration_budget,
    project_l1,
    run,
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
)
from .oracle import (
    InfeasibleError,
    OracleSolution,
    enumerate_optimum,
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
    "BaseRates", "CellDistribution", "FairnessNotion", "GroupSystem",
    "MixtureClassifier", "aggregate_cells", "build_cells",
    "RateReport", "base_rates", "constraint_vector", "surrogate_error", "true_rates",
    "BudgetExceededError", "SolveResult", "SolverConfig", "TrajectoryRecord",
    "duality_gap", "iteration_budget", "project_l1", "run", "run_sampled", "sample_size",
    "CalibrationResult", "CheckFunction", "audit", "brier",
    "calibrate", "default_checks",
    "InfeasibleError", "OracleSolution", "enumerate_optimum", "simplex_solve",
    "SplitMix64", "SynthSpec", "gen_instance",
    "FairThresholdPostprocessor", "JointMulticalibrator", "NotFittedError",
    "__version__",
]
