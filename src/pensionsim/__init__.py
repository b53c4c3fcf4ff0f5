"""Defined-contribution pension accumulation simulator.

Generates or ingests economic scenarios, prices an inflation-indexed
annuity, tracks a salary/contribution career, runs rule-based and
dynamic-programming allocation strategies, and evaluates replacement-ratio
outcomes.
"""

from .career import (
    CareerSchedule,
    contribution_path,
    default_schedule,
    franchise_path,
    salary_path,
    schedule_from_csv,
)
from .dp import (
    CombinationStrategy,
    DpConfig,
    PolicyModel,
    export_policy_csv,
    solve_policy,
    utility_check,
    z_step,
)
from .engine import SimulationInputs
from .errors import (
    ConfigError,
    ContractError,
    DomainError,
    EngineError,
    EstimatorError,
    ParameterError,
    ScheduleError,
    SchemaError,
    ShapeError,
)
from .lsmc import (
    InflationEstimator,
    LoessModel,
    loess_batch,
    loess_eval,
    regress_now,
    tricube_weight,
)
from .market import (
    AnnuitySpec,
    MarketValueSeries,
    market_value_series,
    post_retirement_factor,
)
from .metrics import (
    EvaluationReport,
    FrontierRow,
    ReplacementEstimators,
    cvar,
    evaluate_strategy,
    frontier,
    replacement_ratio,
    shortfall,
    var,
)
from .scenario import (
    ModelParams,
    MomentReport,
    ScenarioSet,
    export_csv,
    ingest,
    simulate,
    summarize,
)
from .strategies import (
    CumulativeTargetStrategy,
    GlidePath,
    IndividualTargetStrategy,
    StaticMixStrategy,
    StrategyOutcome,
    TargetFrame,
    TargetParams,
    cumulative_step,
    cumulative_target,
    optimize_static_mix,
    static_step,
    target_wealth_factor,
)

__version__ = "0.1.0"
