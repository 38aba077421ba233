"""Projection-free variance-reduced solvers and their parameter schedules.

Every solver is a list of (stage tag, params) stages run by one driver
with a step function. The pmvr step updates the STORM trackers on shared
per-level batches, asks the feasible set for a direction (plain LMO, or
the quadratic Frank-Wolfe subsolver when a curvature coefficient is
configured), and moves by a convex combination, so every iterate stays
feasible by construction. The stage-wise solver runs one stage per target
accuracy, warm-starting the iterate and both trackers from the previous
stage; the projected baseline is a different step over one stage.
Parameter schedules turn a target accuracy into concrete constants for
each convergence criterion, with every order constant overridable.
"""

from __future__ import annotations

import math
import time
import warnings
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .data_io import TraceRow
from .estimators import (
    GradientTracker,
    ValueTrackers,
    _batch_chain_products,
    _batch_values,
    _level_batches,
    init_trackers,
    storm_gradient_update,
    storm_value_update,
)
from .metrics import OracleCounters, _fw_gap, _gradient_mapping
from .problems import FiniteSamples, _chain_gradient, exact_gradient, exact_inner_values
from .rng import STREAM_POWER_BASE, STREAM_TAU_BASE

FEASIBILITY_TOL = 1e-6


class FeasibilityError(RuntimeError):
    pass


def classic_gamma(n):
    """Inner Frank-Wolfe step size; yields the 2*coeff*D^2/(N+2) certificate."""
    return 2.0 / (n + 2.0)


@dataclass(frozen=True)
class QuadraticSubsolver:
    """Inner solver config: minimizes <v, w-x> + (coeff/2)*||w-x||^2 by LMO steps."""

    coeff: float
    inner_iters: int

    def __post_init__(self):
        if self.coeff <= 0:
            raise ValueError("subsolver coefficient must be positive")
        if self.inner_iters < 1:
            raise ValueError("subsolver needs at least one inner iteration")


@dataclass(frozen=True)
class SolverParams:
    eta: float
    alpha: float
    b0: int
    b1: int
    iters: int
    subsolver: Optional[QuadraticSubsolver] = None

    def __post_init__(self):
        if not 0.0 <= self.eta <= 1.0:
            raise ValueError(f"eta must lie in [0, 1], got {self.eta}")
        if not 0.0 < self.alpha <= 1.0:
            raise ValueError(f"alpha must lie in (0, 1], got {self.alpha}")
        if self.b0 < 1 or self.b1 < 1:
            raise ValueError("batch sizes must be >= 1")
        if self.iters < 1:
            raise ValueError("iteration count must be >= 1")


@dataclass
class StageSchedule:
    """Per-stage parameters with geometrically shrinking accuracy targets."""

    stages: list
    targets: list
    eps1: float = 1.0

    def __post_init__(self):
        if len(self.stages) < 1:
            raise ValueError("a stage schedule needs at least one stage")
        if len(self.targets) != len(self.stages):
            raise ValueError("one accuracy target per stage required")
        for a, b in zip(self.stages, self.stages[1:]):
            if b.iters < a.iters:
                raise ValueError("stage iteration counts must be non-decreasing")
            if b.eta > a.eta + 1e-15 or b.alpha > a.alpha + 1e-15:
                raise ValueError("eta and alpha must be non-increasing across stages")


@dataclass
class SolverState:
    """Iterate, oracle counters and the step's trackers.

    pmvr keeps the STORM trackers and the previous chain point; the
    baseline keeps its moving averages in ``trackers.u`` and its last
    mini-batch gradient in ``gradient.v``.
    """

    x: np.ndarray
    counters: OracleCounters
    trackers: Optional[ValueTrackers] = None
    gradient: Optional[GradientTracker] = None
    prev_chain: Optional[list] = None
    t: int = 0
    warned_batch: bool = False


@dataclass
class TraceConfig:
    metric_every: Optional[int] = None
    beta: float = 1.0
    collect_tau: bool = True
    track_gradient_error: bool = False
    keep_iterates: bool = True


@dataclass
class RunResult:
    trace: list
    state: SolverState
    x_final: np.ndarray
    tau: Optional[int] = None
    x_tau: Optional[np.ndarray] = None
    iterates: list = field(default_factory=list)
    gradient_errors: Optional[np.ndarray] = None
    stage_ends: list = field(default_factory=list)


def quadratic_fw_subsolve(v, x_t, coeff, n_iters, fset, gamma=None, rng=None):
    """Approximately minimize <v, w-x_t> + (coeff/2)||w-x_t||^2 over the set.

    Runs n_iters Frank-Wolfe steps from w_1 = x_t and returns w_{N+1}, whose
    suboptimality is at most 2*coeff*D^2/(N+2).
    """
    if coeff <= 0:
        raise ValueError("coeff must be positive")
    if n_iters < 1:
        raise ValueError("n_iters must be >= 1")
    x_t = np.asarray(x_t, dtype=np.float64)
    if not fset.contains(x_t, FEASIBILITY_TOL):
        raise FeasibilityError("subsolver anchor point is infeasible")
    if gamma is None:
        gamma = classic_gamma
    w = x_t.copy()
    warm = {}  # inner directions barely move; reuse the LMO's converged block
    for n in range(1, n_iters + 1):
        s = fset.lmo(v + coeff * (w - x_t), rng=rng, warm=warm)
        g = gamma(n)
        w = (1.0 - g) * w + g * s
    return w


def _feasible_state(fset, x1):
    x1 = np.asarray(x1, dtype=np.float64).copy()
    if not fset.contains(x1, FEASIBILITY_TOL):
        raise FeasibilityError("initial point is infeasible")
    return SolverState(x=x1, counters=OracleCounters())


def _init_state(problem, fset, params, x1, rng):
    state = _feasible_state(fset, x1)
    state.trackers, state.gradient = init_trackers(
        problem, state.x, params.b0, rng, params.alpha, state.counters
    )
    return state


def _init_baseline_state(problem, fset, params, x1, rng):
    state = _feasible_state(fset, x1)
    state.trackers = ValueTrackers(u=[None] * problem.k, alpha=params.alpha)
    state.gradient = GradientTracker(v=None, alpha=params.alpha)
    return state


def _draw_batches(state, problem, b, rng):
    """Per-level batches of size b for the next iteration.

    Warns once per run when b exceeds a finite dataset, since the batch is
    then drawn with replacement.
    """
    if not state.warned_batch:
        for level in problem.levels:
            if isinstance(level.samples, FiniteSamples) and b > level.samples.size:
                warnings.warn(
                    f"batch size {b} exceeds dataset size "
                    f"{level.samples.size}; sampling with replacement",
                    stacklevel=3,
                )
                state.warned_batch = True
                break
    return _level_batches(problem, rng, state.t + 1, b)


def pmvr_step(state, problem, fset, params, rng):
    """One full iteration: tracker updates on shared batches, direction, move.

    The first iteration after initialization evaluates each sample at a
    single chain point per level (the iterate has not moved yet), so its
    oracle cost is K*B1; later iterations cost 2*K*B1.
    """
    k = problem.k
    t = state.t + 1
    first = t == 1
    batches = _draw_batches(state, problem, params.b1, rng)
    new_chain = [problem.flatten(state.x)]
    for i, batch in enumerate(batches, start=1):
        u_new_prev = new_chain[i - 1]
        u_old_prev = u_new_prev if first else state.prev_chain[i - 1]
        u_i = storm_value_update(
            state.trackers, problem, i, u_new_prev, u_old_prev, batch
        )
        if i < k:
            new_chain.append(u_i)
    old_chain = new_chain if first else state.prev_chain
    storm_gradient_update(state.gradient, problem, new_chain, old_chain, batches)
    state.counters.sfo += k * params.b1 if first else 2 * k * params.b1

    power_gen = rng.split(STREAM_POWER_BASE + t).generator
    v = state.gradient.v
    if params.subsolver is None:
        z = fset.lmo(v, rng=power_gen)
        state.counters.lmo += 1
    else:
        z = quadratic_fw_subsolve(
            v, state.x, params.subsolver.coeff, params.subsolver.inner_iters,
            fset, rng=power_gen,
        )
        state.counters.lmo += params.subsolver.inner_iters

    x_new = state.x + params.eta * (z - state.x)
    if not fset.contains(x_new, FEASIBILITY_TOL):
        raise FeasibilityError(f"iterate left the feasible set at iteration {t}")
    state.prev_chain = new_chain
    state.x = x_new
    state.t = t
    return state


def _baseline_step(state, problem, fset, params, rng):
    """Moving-average inner values, a mini-batch chain gradient at them, and
    a projected gradient step; costs K*B1 SFO calls and no LMO call."""
    k = problem.k
    t = state.t + 1
    batches = _draw_batches(state, problem, params.b1, rng)
    averages = state.trackers.u
    alpha = state.trackers.alpha
    chain = [problem.flatten(state.x)]
    for i, (level, batch) in enumerate(zip(problem.levels, batches)):
        mean_i = _batch_values(level, chain[-1], batch)
        prev = averages[i]
        averages[i] = mean_i if prev is None else (1.0 - alpha) * prev + alpha * mean_i
        if i < k - 1:
            chain.append(averages[i])
    state.gradient.v = problem.unflatten(_batch_chain_products(problem, chain, batches))
    state.counters.sfo += k * params.b1
    x_new = fset.project(state.x - params.eta * state.gradient.v)
    if not fset.contains(x_new, FEASIBILITY_TOL):
        raise FeasibilityError(f"baseline iterate infeasible at iteration {t}")
    state.x = x_new
    state.t = t
    return state


def _metric_row(problem, fset, state, cfg, stage, t0):
    """Trace row from one exact pass: F(x) and grad F(x), then every criterion."""
    seconds = time.perf_counter() - t0
    x = state.x
    values = exact_inner_values(problem, x)
    f = float(values[-1][0])
    g = _chain_gradient(problem, x, values)
    f_star = problem.metadata.f_star
    return TraceRow(
        iteration=state.t,
        stage=stage,
        seconds=seconds,
        sfo=state.counters.sfo,
        lmo=state.counters.lmo,
        objective=f,
        fw_gap=_fw_gap(fset, x, g),
        grad_map=_gradient_mapping(fset, x, g, cfg.beta),
        beta=cfg.beta,
        opt_gap=None if f_star is None else f - float(f_star),
    )


def _run_stages(problem, fset, stages, x1, rng, trace, init, step, tau=None):
    """The one outer loop: run (stage tag, params) stages in order.

    ``init(problem, fset, params, x1, rng)`` builds the state with the first
    stage's params; ``step`` advances it by one iteration. Row 0 (tag 0)
    records x1; a stage then emits a row every ``metric_every`` iterations
    (default T/200) and at its end. Each stage continues from the previous
    one's state, taking over only its momentum alpha, and ends with an
    (x, u, v, t) snapshot. ``tau`` names an iteration of the first stage
    whose starting point is kept as ``x_tau``.
    """
    cfg = trace if trace is not None else TraceConfig()
    t0 = time.perf_counter()
    state = init(problem, fset, stages[0][1], x1, rng)
    rows = [_metric_row(problem, fset, state, cfg, 0, t0)]
    iterates = [state.x.copy()] if cfg.keep_iterates else []
    grad_errors = [] if cfg.track_gradient_error else None
    x_tau = None
    stage_ends = []
    for tag, params in stages:
        state.trackers.alpha = state.gradient.alpha = params.alpha
        every = cfg.metric_every or max(1, params.iters // 200)
        for j in range(1, params.iters + 1):
            x_pre = state.x
            step(state, problem, fset, params, rng)
            if grad_errors is not None:
                diff = state.gradient.v - exact_gradient(problem, x_pre)
                grad_errors.append(float(np.vdot(diff, diff)))
            if j == tau:
                x_tau = x_pre.copy()
            if cfg.keep_iterates:
                iterates.append(state.x.copy())
            if j % every == 0 or j == params.iters:
                rows.append(_metric_row(problem, fset, state, cfg, tag, t0))
        stage_ends.append(
            (
                state.x.copy(),
                [u.copy() for u in state.trackers.u],
                state.gradient.v.copy(),
                state.t,
            )
        )
    return RunResult(
        trace=rows,
        state=state,
        x_final=state.x,
        tau=tau,
        x_tau=x_tau,
        iterates=iterates,
        gradient_errors=None if grad_errors is None else np.asarray(grad_errors),
        stage_ends=stage_ends,
    )


def pmvr_run(problem, fset, params, x1, rng, trace=None):
    """Initialize trackers, run T iterations, and draw the returned index.

    The uniform index tau comes from a dedicated substream so the metric
    cadence cannot perturb the solver's sample draws. The trace records the
    exact criteria at the configured cadence; the full iterate history is
    kept so downstream plots do not depend on tau.
    """
    tau = None
    if trace is None or trace.collect_tau:
        tau_gen = rng.split(STREAM_TAU_BASE + 0).generator
        tau = int(tau_gen.integers(1, params.iters + 1))
    return _run_stages(
        problem, fset, [(0, params)], x1, rng, trace, _init_state, pmvr_step, tau
    )


def stagewise_run(problem, fset, schedule, x0, rng, trace=None):
    """Sequential stages warm-starting the iterate and both trackers.

    Initialization happens once, before stage 1; every later stage continues
    from the previous stage's final state (never re-initialized). Stage
    boundaries are tagged 1..S in the trace, and per-stage end snapshots are
    returned for inspection.
    """
    stages = list(enumerate(schedule.stages, start=1))
    return _run_stages(problem, fset, stages, x0, rng, trace, _init_state, pmvr_step)


def projected_baseline_run(problem, fset, eta, alpha, b, iters, x1, rng, trace=None):
    """Projected compositional-gradient baseline for sanity comparisons.

    Inner values are tracked by a plain moving average; the gradient is a
    momentum-free mini-batch chain product at those averaged values; the
    iterate moves by a projected gradient step. Uses the projection oracle,
    so its LMO counter stays at zero.
    """
    params = SolverParams(eta=eta, alpha=alpha, b0=b, b1=b, iters=iters)
    return _run_stages(
        problem, fset, [(0, params)], x1, rng, trace, _init_baseline_state, _baseline_step
    )


# --- parameter schedules -------------------------------------------------

@dataclass(frozen=True)
class ScheduleConstants:
    """Order constants for the schedules; every default is 1."""

    eta: float = 1.0
    alpha: float = 1.0
    b0: float = 1.0
    b1: float = 1.0
    t: float = 1.0
    n: float = 1.0
    eps1: float = 1.0


CRITERIA = ("fw_gap", "grad_map", "convex_gap", "strongly_convex_gap")
BATCH_MODES = ("constant", "large")


def _int_ceil(x):
    nearest = round(x)
    if abs(x - nearest) <= 1e-9 * max(1.0, abs(x)):
        return max(1, int(nearest))
    return max(1, math.ceil(x))


def _clamp01(x):
    return min(1.0, float(x))


def schedule_for(criterion, batch_mode, eps, constants=None,
                 strong_convexity=None, beta=1.0):
    """Concrete parameters for a target accuracy under a given criterion.

    Returns SolverParams for the two non-convex criteria and a StageSchedule
    for the convex and strongly convex ones. Each order term becomes
    c * g(eps), clamped to valid ranges (eta, alpha <= 1; counts >= 1,
    rounded up). Strongly convex schedules need the modulus and fix the
    inner iteration count from the final accuracy target.
    """
    if criterion not in CRITERIA:
        raise ValueError(f"unknown criterion {criterion!r}, expected one of {CRITERIA}")
    if batch_mode not in BATCH_MODES:
        raise ValueError(f"unknown batch mode {batch_mode!r}")
    if not 0.0 < eps <= 1.0:
        raise ValueError(f"eps must lie in (0, 1], got {eps}")
    c = constants if constants is not None else ScheduleConstants()

    if criterion == "fw_gap":
        if batch_mode == "constant":
            return SolverParams(
                eta=_clamp01(c.eta * eps**2),
                alpha=_clamp01(c.alpha * eps**2),
                b0=_int_ceil(c.b0 / eps),
                b1=_int_ceil(c.b1),
                iters=_int_ceil(c.t / eps**3),
            )
        return SolverParams(
            eta=_clamp01(c.eta * eps),
            alpha=_clamp01(c.alpha * eps),
            b0=_int_ceil(c.b0 / eps),
            b1=_int_ceil(c.b1 / eps),
            iters=_int_ceil(c.t / eps**2),
        )

    if criterion == "grad_map":
        sub = QuadraticSubsolver(coeff=beta, inner_iters=_int_ceil(c.n / eps))
        if batch_mode == "constant":
            return SolverParams(
                eta=_clamp01(c.eta * math.sqrt(eps)),
                alpha=_clamp01(c.alpha * eps),
                b0=_int_ceil(c.b0 / math.sqrt(eps)),
                b1=_int_ceil(c.b1),
                iters=_int_ceil(c.t / eps**1.5),
                subsolver=sub,
            )
        return SolverParams(
            eta=_clamp01(c.eta),
            alpha=_clamp01(c.alpha * math.sqrt(eps)),
            b0=_int_ceil(c.b0 / math.sqrt(eps)),
            b1=_int_ceil(c.b1 / math.sqrt(eps)),
            iters=_int_ceil(c.t / eps),
            subsolver=sub,
        )

    # stage-wise criteria
    n_stages = max(1, math.ceil(math.log2(c.eps1 / eps) - 1e-12)) if eps < c.eps1 else 1
    targets = [c.eps1 / 2**s for s in range(1, n_stages + 1)]

    if criterion == "convex_gap":
        stages = []
        for eps_s in targets:
            if batch_mode == "constant":
                stages.append(
                    SolverParams(
                        eta=_clamp01(c.eta * eps_s**2),
                        alpha=_clamp01(c.alpha * eps_s**2),
                        b0=_int_ceil(c.b0),
                        b1=_int_ceil(c.b1),
                        iters=_int_ceil(c.t / eps_s**2),
                    )
                )
            else:
                stages.append(
                    SolverParams(
                        eta=_clamp01(c.eta * eps_s),
                        alpha=_clamp01(c.alpha * eps_s),
                        b0=_int_ceil(c.b0),
                        b1=_int_ceil(c.b1 / eps_s),
                        iters=_int_ceil(c.t / eps_s),
                    )
                )
        return StageSchedule(stages=stages, targets=targets, eps1=c.eps1)

    lam = strong_convexity
    if lam is None or lam <= 0:
        raise ValueError("strongly convex schedules require a positive modulus")
    sub = QuadraticSubsolver(coeff=lam / 2.0, inner_iters=_int_ceil(c.n * lam / eps))
    b0 = _int_ceil(c.b0 * max(1.0 / lam, 1.0))
    stages = []
    for eps_s in targets:
        if batch_mode == "constant":
            stages.append(
                SolverParams(
                    eta=_clamp01(c.eta * lam * eps_s),
                    alpha=_clamp01(c.alpha * lam * eps_s),
                    b0=b0,
                    b1=_int_ceil(c.b1),
                    iters=_int_ceil(c.t / (lam * eps_s)),
                    subsolver=sub,
                )
            )
        else:
            stages.append(
                SolverParams(
                    eta=_clamp01(c.eta * lam),
                    alpha=_clamp01(c.alpha * lam),
                    b0=b0,
                    b1=_int_ceil(c.b1 / eps_s),
                    iters=_int_ceil(c.t / lam),
                    subsolver=sub,
                )
            )
    return StageSchedule(stages=stages, targets=targets, eps1=c.eps1)
