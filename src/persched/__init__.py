"""Joint design of periodic estimator gains and sparse sensor schedules.

For a discrete-time plant observed by M sensors, this package designs a
K-periodic sequence of estimator gains together with a sensor activation
schedule that respects per-sensor frequency bounds, trading average
estimation error against how often sensors are used. The solver alternates
a smooth gain subproblem with a closed-form sparsification step through an
augmented-Lagrangian splitting; exhaustive and random-schedule references
plus a diffusion-field benchmark are included for validation.
"""

from .admm import (
    AdmmConfig,
    AdmmDriver,
    IterationRecord,
    SolveReport,
    SweepCell,
    default_init_schedule,
    run,
    sweep,
)
from .baselines import (
    BaselineResult,
    OracleResult,
    exhaustive_search,
    random_baseline,
)
from .config import ExperimentConfig, load_experiment
from .exceptions import (
    BudgetError,
    ConfigError,
    ConvergenceError,
    DimensionError,
    InitializationError,
    InputError,
    InstabilityError,
    PerschedError,
)
from .gstep import g_step
from .linalg import matrix_exponential
from .lstep import LStepResult
from .model import (
    AssumptionReport,
    FieldGeometry,
    SystemModel,
    benchmark_geometry,
    benchmark_system,
    build_diffusion_system,
    build_laplacian,
    validate_assumptions,
)
from .periodic import (
    Schedule,
    ScheduleEvaluation,
    covariance_limit_cycle,
    evaluate_schedule,
    evaluate_schedules,
    schedule_from_gains,
)

__version__ = "0.1.0"

__all__ = [
    "AdmmConfig",
    "AdmmDriver",
    "AssumptionReport",
    "BaselineResult",
    "BudgetError",
    "ConfigError",
    "ConvergenceError",
    "DimensionError",
    "ExperimentConfig",
    "FieldGeometry",
    "InitializationError",
    "InputError",
    "InstabilityError",
    "IterationRecord",
    "LStepResult",
    "OracleResult",
    "PerschedError",
    "Schedule",
    "ScheduleEvaluation",
    "SolveReport",
    "SweepCell",
    "SystemModel",
    "benchmark_geometry",
    "benchmark_system",
    "build_diffusion_system",
    "build_laplacian",
    "covariance_limit_cycle",
    "default_init_schedule",
    "evaluate_schedule",
    "evaluate_schedules",
    "exhaustive_search",
    "g_step",
    "load_experiment",
    "matrix_exponential",
    "random_baseline",
    "run",
    "schedule_from_gains",
    "sweep",
    "validate_assumptions",
]
