"""Projection-free variance-reduced solvers and their parameter schedules.

Every solver is a list of (stage tag, params) stages run by one driver
with a step function. The pmvr step updates the STORM trackers on shared
per-level batches, asks the feasible set for a direction (plain LMO, or
the quadratic Frank-Wolfe subsolver when a curvature coefficient is
configured), and moves by a convex combination, so every iterate stays
feasible by construction. Each step checks its iterate through the set's
certificate hooks (``sets.py``), which on the nuclear ball replace a full
SVD per step with an O(1) bound on the nuclear norm; a full check runs at
the start point and at every metric row. The stage-wise solver runs one
stage per target accuracy, warm-starting the iterate and both trackers
from the previous stage; the projected baseline is a different step over
one stage. The three entry points share the signature (problem, fset,
schedule, x1, rng, trace=None), with SolverParams or a StageSchedule.
Parameter schedules turn a target accuracy into concrete constants: one
table gives, for each theorem's (criterion, batch mode), every
parameter's power of the accuracy and of the strong convexity modulus,
and each overridable order constant multiplies that rate.
"""

from __future__ import annotations

import math
import time
import warnings
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .estimators import (
    GradientTracker,
    ValueTrackers,
    _level_batches,
    init_trackers,
    storm_update,
)
from .metrics import OracleCounters, _fw_gap, _gradient_mapping
from .problems import FiniteSamples, _chain_gradient, exact_gradient, exact_inner_values
from .rng import STREAM_LEVEL_STRIDE, STREAM_TAU_BASE

# Slack of every feasibility check. On the nuclear ball the carried bound
# can gain about 1e-14 * radius per step over the true norm at 200 x 200
# (4 unit roundoffs times sqrt(min(m, n)) for the step's rounding, plus the
# rounding up of the bound itself), so about 1e-8 * radius after 2**20
# steps: inside this tolerance for radii below about 100.
FEASIBILITY_TOL = 1e-6


class FeasibilityError(RuntimeError):
    pass


class NonFiniteStateError(RuntimeError):
    """The iterate or a tracker holds a NaN or an infinity; names the
    iteration and level.

    ``level`` is 0 for the iterate x (the chain's input), the value
    tracker's level 1..K, or None for the gradient tracker.
    """

    def __init__(self, iteration, level):
        # both arguments stay in args, so the error survives a process pool
        super().__init__(iteration, level)
        self.iteration = iteration
        self.level = level

    def __str__(self):
        if self.level is None:
            what = "gradient tracker v"
        elif self.level == 0:
            what = "iterate x"
        else:
            what = f"value tracker u[{self.level}]"
        return f"{what} is non-finite at iteration {self.iteration}"


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
    """Per-stage parameters with geometrically shrinking accuracy targets.

    The stage-wise adaptation runs stages whose T does not decrease and
    whose eta and alpha do not increase; a list that breaks this, or has no
    stage, or a target count other than its stage count, raises ValueError.
    """

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
class TraceRow:
    iteration: int
    stage: int
    seconds: float
    sfo: int
    lmo: int
    objective: float
    fw_gap: float
    grad_map: float
    beta: float
    opt_gap: Optional[float] = None


@dataclass
class SolverState:
    """Iterate, its feasibility certificate, oracle counters and the step's
    trackers.

    ``bound`` is what the set's certificate hooks carry for x (on the
    nuclear ball an upper bound on its nuclear norm, else None). pmvr keeps
    the STORM trackers and the previous chain point; the baseline keeps its
    moving averages in ``trackers.u`` and its last mini-batch gradient in
    ``gradient.v``.
    """

    x: np.ndarray
    counters: OracleCounters
    bound: Optional[float] = None
    trackers: Optional[ValueTrackers] = None
    gradient: Optional[GradientTracker] = None
    prev_chain: Optional[list] = None
    t: int = 0


@dataclass
class TraceConfig:
    """``keep_iterates`` keeps every iterate in ``RunResult.iterates``: 320 KB
    per step at 200 x 200, so 640 MB for T = 2000. The CLI turns it off."""

    metric_every: Optional[int] = None
    beta: float = 1.0
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


def quadratic_fw_subsolve(v, x_t, coeff, n_iters, fset):
    """Approximately minimize <v, w-x_t> + (coeff/2)||w-x_t||^2 over the set.

    Runs n_iters Frank-Wolfe steps from w_1 = x_t and returns w_{N+1}, whose
    suboptimality is at most 2*coeff*D^2/(N+2).
    """
    if coeff <= 0:
        raise ValueError("coeff must be positive")
    if n_iters < 1:
        raise ValueError("n_iters must be >= 1")
    x_t = np.asarray(x_t, dtype=np.float64)
    bound = fset._bound(x_t)
    if not fset._admits(x_t, bound, FEASIBILITY_TOL):
        raise FeasibilityError("subsolver anchor point is infeasible")
    return _fw_subsolve(v, x_t, bound, coeff, n_iters, fset)[0]


def _fw_subsolve(v, x_t, bound, coeff, n_iters, fset):
    """The subsolver's loop on an anchor the caller has certified by
    ``bound``; returns w and its certificate."""
    w = x_t.copy()
    for n in range(1, n_iters + 1):
        s, s_bound = fset._lmo(v + coeff * (w - x_t))
        g = classic_gamma(n)
        w = (1.0 - g) * w + g * s
        bound = fset._combine(bound, s_bound, g)
    return w, bound


def _warn_oversized(problem, name, b, stacklevel):
    """Warn when the batch size ``name`` = b exceeds a level's finite
    dataset, which its batches are then drawn from with replacement.
    ``stacklevel`` names the frame that called the solver's entry point."""
    for level in problem.levels:
        if isinstance(level.samples, FiniteSamples) and b > level.samples.size:
            warnings.warn(f"batch size {name} = {b} exceeds dataset size {level.samples.size}; "
                          "sampling with replacement", stacklevel=stacklevel)
            return


def _init_baseline_state(problem, fset, params, x1, rng):
    """The starting state every solver shares: a certified x1 and empty
    trackers, which the baseline's first step fills."""
    x1 = np.asarray(x1, dtype=np.float64).copy()
    bound = fset._bound(x1)
    if not fset._admits(x1, bound, FEASIBILITY_TOL):
        raise FeasibilityError("initial point is infeasible")
    return SolverState(x=x1, counters=OracleCounters(), bound=bound,
                       trackers=ValueTrackers(u=[None] * problem.k, alpha=params.alpha),
                       gradient=GradientTracker(v=None, alpha=params.alpha))


def _init_state(problem, fset, params, x1, rng):
    """The shared starting state, its trackers filled by the B0 update."""
    state = _init_baseline_state(problem, fset, params, x1, rng)
    # _warn_oversized < _init_state < _run_stages < entry point < its caller
    _warn_oversized(problem, "B0", params.b0, stacklevel=5)
    state.trackers, state.gradient = init_trackers(
        problem, state.x, params.b0, rng, params.alpha, state.counters
    )
    return state


def _check_finite(state, iteration):
    """Raise NonFiniteStateError unless the iterate and every tracker hold
    finite values.

    The steps call it before they consult the set, which would otherwise
    turn a NaN direction into a vertex (simplex) or fail untyped. The
    iterate is checked first, since the trackers are evaluated at it, and
    at all because a feasibility certificate never reads x itself. The
    baseline's averages are None until its first step fills them.
    """
    arrays = [state.x, *state.trackers.u, state.gradient.v]
    # a NaN or infinity makes the total non-finite, so a finite total
    # clears every entry with one reduction per array
    if math.isfinite(sum(np.add.reduce(a, None) for a in arrays if a is not None)):
        return
    k = len(state.trackers.u)
    for level, a in enumerate(arrays):  # level 0 is the iterate
        if a is not None and not np.isfinite(a).all():
            raise NonFiniteStateError(iteration, level if level <= k else None)


def pmvr_step(state, problem, fset, params, rng):
    """One full iteration: tracker updates on shared batches, direction, move.

    The first iteration after initialization evaluates each sample at a
    single chain point per level (the iterate has not moved yet), so its
    oracle cost is K*B1; later iterations cost 2*K*B1.
    """
    t = state.t + 1
    batches = _level_batches(problem, rng, t, params.b1, streamed=True)
    # prev_chain is None until the first step has run
    new_chain = storm_update(
        state.trackers, state.gradient, problem, state.x, state.prev_chain, batches,
        state.counters,
    )
    _check_finite(state, t)

    v = state.gradient.v
    if params.subsolver is None:
        z, z_bound = fset._lmo(v)
        state.counters.lmo += 1
    else:
        sub = params.subsolver
        z, z_bound = _fw_subsolve(v, state.x, state.bound, sub.coeff, sub.inner_iters, fset)
        state.counters.lmo += sub.inner_iters

    x_new = state.x + params.eta * (z - state.x)
    bound = fset._combine(state.bound, z_bound, params.eta)
    if not fset._admits(x_new, bound, FEASIBILITY_TOL):
        raise FeasibilityError(f"iterate left the feasible set at iteration {t}")
    state.prev_chain = new_chain
    state.x = x_new
    state.bound = bound
    state.t = t
    return state


def _baseline_step(state, problem, fset, params, rng):
    """Moving-average inner values and a mini-batch chain gradient at them,
    one tracker update with no old point on an emptied gradient tracker, then
    a projected gradient step; costs K*B1 SFO calls and no LMO call."""
    t = state.t + 1
    batches = _level_batches(problem, rng, t, params.b1, streamed=True)
    state.gradient.v = None
    storm_update(state.trackers, state.gradient, problem, state.x, None, batches, state.counters)
    _check_finite(state, t)
    x_new, bound = fset._project(state.x - params.eta * state.gradient.v)
    if not fset._admits(x_new, bound, FEASIBILITY_TOL):
        raise FeasibilityError(f"baseline iterate infeasible at iteration {t}")
    state.x = x_new
    state.bound = bound
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
    whose starting point is kept as ``x_tau``. The iterate and the trackers
    are checked for non-finite values after initialization, and by each
    step after it updates them. Every metric row after a step first checks
    a certified iterate with the set's full ``contains``, since the steps
    check only its certificate. A run of STREAM_LEVEL_STRIDE or more iterations
    in total raises ValueError before initialization: its late batches
    would repeat the next level's sample streams. Each distinct step batch
    size B1 larger than a finite dataset warns once, before initialization
    (``init`` checks its own B0).
    """
    total = sum(params.iters for _, params in stages)
    if total >= STREAM_LEVEL_STRIDE:
        raise ValueError(
            f"{total} iterations in total reach the per-level stream stride "
            f"{STREAM_LEVEL_STRIDE}; level i's late batches would repeat level i+1's"
        )
    for b1 in dict.fromkeys(params.b1 for _, params in stages):
        # _warn_oversized < _run_stages < entry point < its caller
        _warn_oversized(problem, "B1", b1, stacklevel=4)
    cfg = trace if trace is not None else TraceConfig()
    t0 = time.perf_counter()
    state = init(problem, fset, stages[0][1], x1, rng)
    _check_finite(state, 0)
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
                # a step that carried no certificate has run contains itself
                if state.bound is not None and not fset.contains(state.x, FEASIBILITY_TOL):
                    raise FeasibilityError(
                        f"iterate fails the full feasibility check at iteration {state.t}"
                    )
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
    tau_gen = rng.split(STREAM_TAU_BASE + 0).generator
    tau = int(tau_gen.integers(1, params.iters + 1))
    return _run_stages(
        problem, fset, [(0, params)], x1, rng, trace, _init_state, pmvr_step, tau
    )


def stagewise_run(problem, fset, schedule, x1, rng, trace=None):
    """Sequential stages warm-starting the iterate and both trackers.

    Initialization happens once, before stage 1; every later stage continues
    from the previous stage's final state (never re-initialized). Stage
    boundaries are tagged 1..S in the trace, and per-stage end snapshots are
    returned for inspection. The stages' order was checked when
    ``schedule`` was built (see StageSchedule).
    """
    stages = list(enumerate(schedule.stages, start=1))
    return _run_stages(problem, fset, stages, x1, rng, trace, _init_state, pmvr_step)


def projected_baseline_run(problem, fset, params, x1, rng, trace=None):
    """Projected compositional-gradient baseline for sanity comparisons.

    Inner values are tracked by a plain moving average (the tracker update
    with no old point); the gradient is a mini-batch chain product at them
    (the update of an emptied tracker); the iterate moves by a projected
    gradient step. It reads ``params.eta``, ``alpha``, ``b1`` and ``iters``;
    it draws no initialization batch, so ``params.b0`` is unused. Uses the
    projection oracle, so its LMO counter stays at zero.
    """
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


# Every theorem's rates, in the order of Theorems 1-8, as (power of eps, power
# of the modulus lambda) for eta, alpha, B0, B1, T and the subsolver's N; the
# stage-wise rows read eps as each stage's target, except N, which takes the
# final eps. B0 None is the strongly convex c.b0 * max(1/lambda, 1), and N
# None runs no subsolver.
_ORDERS = {
    ("fw_gap", "constant"): ((2, 0), (2, 0), (-1, 0), (0, 0), (-3, 0), None),
    ("fw_gap", "large"): ((1, 0), (1, 0), (-1, 0), (-1, 0), (-2, 0), None),
    ("grad_map", "constant"): ((0.5, 0), (1, 0), (-0.5, 0), (0, 0), (-1.5, 0), (-1, 0)),
    ("grad_map", "large"): ((0, 0), (0.5, 0), (-0.5, 0), (-0.5, 0), (-1, 0), (-1, 0)),
    ("convex_gap", "constant"): ((2, 0), (2, 0), (0, 0), (0, 0), (-2, 0), None),
    ("convex_gap", "large"): ((1, 0), (1, 0), (0, 0), (-1, 0), (-1, 0), None),
    ("strongly_convex_gap", "constant"): ((1, 1), (1, 1), None, (0, 0), (-1, -1), (-1, 1)),
    ("strongly_convex_gap", "large"): ((0, 1), (0, 1), None, (-1, 0), (0, -1), (-1, 1)),
}
THEOREMS = {f"thm{i}": row for i, row in enumerate(_ORDERS, start=1)}
CRITERIA = tuple(dict.fromkeys(criterion for criterion, _ in _ORDERS))
BATCH_MODES = tuple(dict.fromkeys(mode for _, mode in _ORDERS))


def _int_ceil(x):
    nearest = round(x)
    if abs(x - nearest) <= 1e-9 * max(1.0, abs(x)):
        return max(1, int(nearest))
    return max(1, math.ceil(x))


def _clamp01(x):
    return min(1.0, float(x))


def _rate(const, order, eps, lam):
    """const * lam**order[1] * eps**order[0], evaluated as the closed forms
    write it: the positive powers multiply left to right (lambda first), the
    negative ones divide as one product, and a half power is math.sqrt."""
    num, den = const, None
    for base, power in ((lam, order[1]), (eps, order[0])):
        if power:
            mag = abs(power)
            factor = base if mag == 1 else math.sqrt(base) if mag == 0.5 else base**mag
            if power > 0:
                num = num * factor
            else:
                den = factor if den is None else den * factor
    return num if den is None else num / den


def schedule_for(criterion, batch_mode, eps, constants=None,
                 strong_convexity=None, beta=1.0):
    """Concrete parameters for a target accuracy under a given criterion.

    Returns SolverParams for the two non-convex criteria and a StageSchedule
    for the convex and strongly convex ones. Each order term becomes
    c * eps**p * lambda**q with (p, q) read from the row of ``_ORDERS``,
    clamped to valid ranges (eta, alpha <= 1; counts >= 1, rounded up).
    Strongly convex schedules need the modulus and fix the inner iteration
    count from the final accuracy target.
    """
    if criterion not in CRITERIA:
        raise ValueError(f"unknown criterion {criterion!r}, expected one of {CRITERIA}")
    if batch_mode not in BATCH_MODES:
        raise ValueError(f"unknown batch mode {batch_mode!r}")
    if not 0.0 < eps <= 1.0:
        raise ValueError(f"eps must lie in (0, 1], got {eps}")
    c = constants if constants is not None else ScheduleConstants()
    eta, alpha, b0, b1, t, n = _ORDERS[criterion, batch_mode]

    stagewise = criterion in ("convex_gap", "strongly_convex_gap")
    if stagewise:
        n_stages = max(1, math.ceil(math.log2(c.eps1 / eps) - 1e-12)) if eps < c.eps1 else 1
        targets = [c.eps1 / 2**s for s in range(1, n_stages + 1)]
    lam = None
    if criterion == "strongly_convex_gap":
        lam = strong_convexity
        if lam is None or lam <= 0:
            raise ValueError("strongly convex schedules require a positive modulus")
    sub = None
    if n is not None:
        sub = QuadraticSubsolver(coeff=beta if lam is None else lam / 2.0,
                                 inner_iters=_int_ceil(_rate(c.n, n, eps, lam)))
    fixed_b0 = _int_ceil(c.b0 * max(1.0 / lam, 1.0)) if b0 is None else None

    def params(e):
        return SolverParams(
            eta=_clamp01(_rate(c.eta, eta, e, lam)),
            alpha=_clamp01(_rate(c.alpha, alpha, e, lam)),
            b0=fixed_b0 if b0 is None else _int_ceil(_rate(c.b0, b0, e, lam)),
            b1=_int_ceil(_rate(c.b1, b1, e, lam)),
            iters=_int_ceil(_rate(c.t, t, e, lam)),
            subsolver=sub,
        )

    if not stagewise:
        return params(eps)
    return StageSchedule(stages=[params(e) for e in targets], targets=targets, eps1=c.eps1)
