"""Projection-free variance-reduced optimization for constrained
multi-level compositional objectives."""

from .core import inner, matmul_chain
from .metrics import (
    OracleCounters,
    expected_baseline_sfo,
    expected_lmo,
    expected_sfo,
    fw_gap,
    gradient_mapping,
    optimal_gap,
)
from .problems import (
    CompositionalProblem,
    FiniteSamples,
    GenerativeSamples,
    Level,
    ProblemMetadata,
    exact_gradient,
    exact_inner_values,
    objective,
    sample_batch,
)
from .rng import RandomSource
from .sets import (
    Box,
    NuclearNormBall,
    Simplex,
    project_simplex,
    top_singular_pair,
)
from .solvers import (
    QuadraticSubsolver,
    RunResult,
    ScheduleConstants,
    SolverParams,
    StageSchedule,
    TraceConfig,
    pmvr_run,
    pmvr_step,
    projected_baseline_run,
    quadratic_fw_subsolve,
    schedule_for,
    stagewise_run,
)
from .estimators import init_trackers, storm_update

__version__ = "0.1.0"
