import json
import math
import tracemalloc
import warnings
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pmvr import cli, rng as rng_module, sets, solvers
from pmvr.benchmarks import (
    PortfolioData,
    SingleIndexConfig,
    mean_deviation_problem,
    mean_variance_problem,
    quadratic_distance_problem,
    single_index_problem,
    synthetic_portfolio_data,
    two_level_tracking_problem,
)
from pmvr.core import inner
from pmvr.metrics import OracleCounters, expected_baseline_sfo, expected_lmo, expected_sfo
from pmvr.estimators import _level_batches, _Stream, init_trackers
from pmvr.problems import (
    CompositionalProblem,
    FiniteSamples,
    GenerativeSamples,
    Level,
    sample_batch,
)
from pmvr.rng import RandomSource
from pmvr.sets import Box, NuclearNormBall, Simplex, top_singular_pair
from pmvr.solvers import (
    FeasibilityError,
    NonFiniteStateError,
    QuadraticSubsolver,
    ScheduleConstants,
    SolverParams,
    SolverState,
    StageSchedule,
    TraceConfig,
    _baseline_step,
    _check_finite,
    _start_state,
    pmvr_run,
    pmvr_step,
    projected_baseline_run,
    quadratic_fw_subsolve,
    schedule_for,
    stagewise_run,
)


def linear_problem(c):
    """Noise-free F(x) = <c, x> as a single-level problem."""
    c = np.asarray(c, dtype=np.float64)
    level = Level(
        c.size, 1,
        lambda x, s: np.full((len(s), 1), c @ x),
        lambda x, s: np.broadcast_to(c.reshape(-1, 1), (len(s), c.size, 1)),
        lambda x: np.array([c @ x]),
        lambda x: c.reshape(-1, 1),
        samples=FiniteSamples(1),
    )
    return CompositionalProblem([level])


def counted_problem(k, dims=None, dataset=5, seed=0):
    """K-level chain whose oracles count their own invocations."""
    gen = np.random.default_rng(seed)
    dims = dims or [3] * k + [1]
    counts = {"value": 0, "jacobian": 0}
    levels = []
    for i in range(k):
        din, dout = dims[i], dims[i + 1]
        a = gen.normal(0, 0.5, size=(dout, din))
        noise = gen.normal(0, 0.1, size=(dataset, dout))
        noise -= noise.mean(axis=0)

        def value(x, t, a=a, noise=noise):
            counts["value"] += len(t)
            return a @ x + noise[t]

        def jacobian(x, t, a=a, noise=noise):
            counts["jacobian"] += len(t)
            return a.T + noise[t].mean(axis=1)[:, None, None]

        levels.append(
            Level(
                din, dout, value, jacobian,
                lambda x, a=a: a @ x,
                lambda x, a=a: a.T.copy(),
                samples=FiniteSamples(dataset),
            )
        )
    return CompositionalProblem(levels), counts


def started(problem, fset, params, x1, rng):
    """The state a pmvr run steps from: x1 certified, the trackers filled
    by the B0 update."""
    state = _start_state(problem, fset, x1)
    state.u, state.v = init_trackers(problem, state.x, params.b0, rng, state.counters)
    return state


class TestSubsolver:
    def test_zero_linear_term(self):
        fset = Simplex(4)
        x_t = np.full(4, 0.25)
        for n in (10, 100):
            w = quadratic_fw_subsolve(np.zeros(4), x_t, 1.0, n, fset)
            g = 0.5 * inner(w - x_t, w - x_t)
            assert g <= 2.0 * fset.diameter**2 / (n + 2) + 1e-9
        w100 = quadratic_fw_subsolve(np.zeros(4), x_t, 1.0, 400, fset)
        assert np.linalg.norm(w100 - x_t) <= 0.1

    def test_certificate_against_projected_optimum(self):
        gen = np.random.default_rng(1)
        fset = Simplex(6)
        coeff = 1.0
        for n in (10, 100):
            bound = 2.0 * coeff * fset.diameter**2 / (n + 2)
            for _ in range(25):
                v = gen.normal(0, 1, size=6)
                x_t = fset.project(gen.normal(0, 1, size=6))
                w = quadratic_fw_subsolve(v, x_t, coeff, n, fset)
                w_star = fset.project(x_t - v / coeff)

                def g(p):
                    return inner(v, p - x_t) + 0.5 * coeff * inner(p - x_t, p - x_t)

                assert g(w) - g(w_star) <= bound + 1e-9

    def test_single_inner_step_unrolled(self):
        # w_2 = (1/3) x_t + (2/3) lmo(v) under the 2/(n+2) rule
        fset = Simplex(3)
        x_t = np.array([0.2, 0.3, 0.5])
        v = np.array([0.5, -1.0, 0.7])
        w = quadratic_fw_subsolve(v, x_t, 2.0, 1, fset)
        want = x_t / 3.0 + (2.0 / 3.0) * fset.lmo(v)
        assert np.allclose(w, want, atol=1e-15)

    def test_infeasible_anchor_rejected(self):
        from pmvr.solvers import FeasibilityError

        with pytest.raises(FeasibilityError):
            quadratic_fw_subsolve(np.zeros(2), np.array([2.0, 2.0]), 1.0, 3, Simplex(2))

    def test_infeasible_nuclear_anchor_rejected(self):
        from pmvr.solvers import FeasibilityError

        ball = NuclearNormBall(3, 4, 1.0)
        v = np.random.default_rng(2).standard_normal((3, 4))
        w = quadratic_fw_subsolve(v, np.eye(3, 4) / 3.0, 1.0, 5, ball)
        assert ball.contains(w, 1e-9)
        with pytest.raises(FeasibilityError):
            quadratic_fw_subsolve(v, np.eye(3, 4) / 2.0, 1.0, 3, ball)


class TestPmvrStep:
    def test_linear_objective_one_step_to_vertex(self):
        c = np.array([0.6, 0.1, 0.9])
        problem = linear_problem(c)
        fset = Simplex(3)
        params = SolverParams(eta=1.0, alpha=1.0, b0=1, b1=1, iters=1)
        state = started(problem, fset, params, np.full(3, 1 / 3), RandomSource(0))
        pmvr_step(state, problem, fset, params, RandomSource(0))
        assert np.array_equal(state.x, np.array([0.0, 1.0, 0.0]))

    def test_zero_step_size_freezes_iterate(self):
        problem, _ = counted_problem(2)
        fset = Simplex(3)
        params = SolverParams(eta=0.0, alpha=0.5, b0=2, b1=1, iters=1)
        rng = RandomSource(3)
        state = started(problem, fset, params, np.full(3, 1 / 3), rng)
        v_before = state.v.copy()
        pmvr_step(state, problem, fset, params, rng)
        assert np.array_equal(state.x, np.full(3, 1 / 3))
        assert not np.array_equal(state.v, v_before)

    def test_simplex_sum_stays_exact(self):
        data = PortfolioData(np.array([[0.01, 0.0], [0.0, 0.01]]))
        problem = mean_variance_problem(data, 1.0)
        fset = Simplex(2)
        params = SolverParams(eta=0.3, alpha=0.5, b0=2, b1=2, iters=3)
        rng = RandomSource(11)
        state = started(problem, fset, params, np.array([0.5, 0.5]), rng)
        for _ in range(3):
            pmvr_step(state, problem, fset, params, rng)
            assert abs(state.x.sum() - 1.0) <= 1e-12
            assert state.x.min() >= -1e-12


class TestPmvrRun:
    def test_single_iteration_tau(self):
        problem = linear_problem([1.0, 2.0])
        fset = Simplex(2)
        params = SolverParams(eta=0.5, alpha=1.0, b0=1, b1=1, iters=1)
        res = pmvr_run(problem, fset, params, np.array([0.5, 0.5]), RandomSource(1))
        assert res.tau == 1
        assert np.array_equal(res.x_tau, np.array([0.5, 0.5]))

    def test_bit_identical_replay(self):
        problem = two_level_tracking_problem()
        fset = Simplex(5)
        params = SolverParams(eta=0.05, alpha=0.3, b0=4, b1=2, iters=25)
        runs = [
            pmvr_run(problem, fset, params, np.full(5, 0.2), RandomSource(21))
            for _ in range(2)
        ]
        assert runs[0].tau == runs[1].tau
        for a, b in zip(runs[0].iterates, runs[1].iterates):
            assert np.array_equal(a, b)
        for ra, rb in zip(runs[0].trace, runs[1].trace):
            assert ra.objective == rb.objective
            assert ra.fw_gap == rb.fw_gap
            assert ra.sfo == rb.sfo

    @pytest.mark.filterwarnings("ignore:batch size B0 = .* exceeds dataset size:UserWarning")
    @pytest.mark.parametrize(
        "k, b0, b1, iters, n_inner",
        [
            (1, 3, 1, 7, None),
            (2, 5, 2, 11, None),
            (3, 2, 3, 6, 4),
            (2, 7, 1, 13, 9),
        ],
    )
    def test_counters_match_formulas_and_actual_calls(self, k, b0, b1, iters, n_inner):
        problem, counts = counted_problem(k)
        fset = Simplex(3)
        sub = None if n_inner is None else QuadraticSubsolver(1.0, n_inner)
        params = SolverParams(eta=0.1, alpha=0.4, b0=b0, b1=b1, iters=iters, subsolver=sub)
        res = pmvr_run(
            problem, fset, params, np.full(3, 1 / 3), RandomSource(9),
            trace=TraceConfig(keep_iterates=False),
        )
        want_sfo = expected_sfo(iters, k, b0, b1)
        want_lmo = expected_lmo(iters, n_inner)
        assert res.state.counters.sfo == want_sfo
        assert res.state.counters.lmo == want_lmo
        # one SFO call returns an inner level's (value, Jacobian) pair and the
        # last level's Jacobian, so the raw Jacobian invocations equal the
        # counter and the value invocations its K - 1 inner levels' share
        assert counts["value"] == want_sfo // k * (k - 1)
        assert counts["jacobian"] == want_sfo

    @pytest.mark.parametrize("k", [1, 2, 3])
    @pytest.mark.parametrize("step", [pmvr_step, _baseline_step])
    def test_k_minus_one_value_trackers_and_no_last_level_value_call(self, k, step):
        """Initialization and every step keep one value tracker per inner
        level, none for K = 1, and no walk asks the last level for a value;
        the SFO counter keeps its closed forms."""
        problem, counts = counted_problem(k)
        problem.levels[-1] = replace(
            problem.levels[-1], value=lambda *args: pytest.fail("last level's value oracle"))
        fset, x1 = Simplex(3), np.full(3, 1 / 3)
        params = SolverParams(eta=0.1, alpha=0.4, b0=3, b1=2, iters=4)
        rng = RandomSource(9)
        if step is pmvr_step:
            state = started(problem, fset, params, x1, rng)
            want = [expected_sfo(t, k, 3, 2) for t in range(5)]
        else:
            state = _start_state(problem, fset, x1)
            want = [expected_baseline_sfo(t, k, 2) for t in range(5)]
        lengths, sfo = [len(state.u)], [state.counters.sfo]
        for _ in range(4):
            step(state, problem, fset, params, rng)
            lengths.append(len(state.u))
            sfo.append(state.counters.sfo)
        assert lengths == [k - 1] * 5 and sfo == want
        assert counts["jacobian"] == want[-1]
        assert counts["value"] == want[-1] // k * (k - 1)

    @pytest.mark.parametrize(
        "solver", ["pmvr", "pmvr-v2", "baseline", "stagewise", "baseline-20x20"])
    def test_metric_cadence_does_not_change_trajectory(self, solver):
        # metric rows read exact oracles only: the iterate, the trackers and
        # the counters are the same at every cadence. On the 20 x 20 ball the
        # rows' projections, like the steps', come from the Gram matrix
        params = SolverParams(eta=0.05, alpha=0.3, b0=4, b1=2, iters=20)
        problem, fset, x1 = two_level_tracking_problem(), Simplex(5), np.full(5, 0.2)
        entry = pmvr_run
        if solver == "stagewise":
            entry, params = stagewise_run, StageSchedule(
                stages=[replace(params, iters=10), replace(params, eta=0.02, alpha=0.2, iters=12)],
            )
        elif solver == "baseline-20x20":
            problem, fset = single_index_problem(SingleIndexConfig(m=20, n=20, sigma=0.1))
            x1, entry, params = problem.x_start, projected_baseline_run, replace(params, iters=15)
        elif solver != "pmvr":
            problem, fset = single_index_problem(SingleIndexConfig(m=5, n=7, sigma=0.1))
            x1 = problem.x_start
            if solver == "baseline":
                entry = projected_baseline_run
            else:
                params = replace(params, subsolver=QuadraticSubsolver(coeff=1.0, inner_iters=3))
        a, b = (entry(problem, fset, params, x1, RandomSource(2), trace) for trace in (
            TraceConfig(metric_every=1), TraceConfig(metric_every=7, track_gradient_error=True)))
        assert np.array_equal(a.x_final, b.x_final)
        assert all(np.array_equal(ua, ub) for ua, ub in zip(a.state.u, b.state.u, strict=True))
        assert np.array_equal(a.state.v, b.state.v)
        assert a.state.counters == b.state.counters


class TestStagewise:
    def test_single_stage_equals_plain_run(self):
        problem = two_level_tracking_problem()
        fset = Simplex(5)
        params = SolverParams(eta=0.05, alpha=0.3, b0=4, b1=2, iters=15)
        schedule = StageSchedule(stages=[params])
        cfg = TraceConfig()
        a = stagewise_run(problem, fset, schedule, np.full(5, 0.2), RandomSource(4), trace=cfg)
        b = pmvr_run(problem, fset, params, np.full(5, 0.2), RandomSource(4), trace=cfg)
        assert np.array_equal(a.x_final, b.x_final)
        for xa, xb in zip(a.iterates, b.iterates):
            assert np.array_equal(xa, xb)

    def test_warm_start_hands_over_state_bitwise(self):
        problem = two_level_tracking_problem()
        fset = Simplex(5)
        p1 = SolverParams(eta=0.05, alpha=0.3, b0=4, b1=2, iters=10)
        p2 = SolverParams(eta=0.02, alpha=0.2, b0=4, b1=2, iters=12)
        schedule = StageSchedule(stages=[p1, p2])
        res = stagewise_run(problem, fset, schedule, np.full(5, 0.2), RandomSource(5))
        x_end1, u_end1, v_end1, t_end1 = res.stage_ends[0]
        assert t_end1 == 10
        # replay stage 1 alone: its end state must match the handoff bitwise
        solo = stagewise_run(
            problem, fset, StageSchedule(stages=[p1]),
            np.full(5, 0.2), RandomSource(5),
        )
        assert np.array_equal(solo.x_final, x_end1)
        for ua, ub in zip(solo.stage_ends[0][1], u_end1):
            assert np.array_equal(ua, ub)
        assert np.array_equal(solo.stage_ends[0][2], v_end1)

    def test_second_stage_steps_at_its_own_alpha(self):
        problem = two_level_tracking_problem()
        fset = Simplex(5)
        p1 = SolverParams(eta=0.05, alpha=0.3, b0=4, b1=2, iters=10)
        p2 = SolverParams(eta=0.02, alpha=0.2, b0=4, b1=2, iters=12)
        schedule = StageSchedule(stages=[p1, p2])
        res = stagewise_run(problem, fset, schedule, np.full(5, 0.2), RandomSource(5))
        x_end, u_end, v_end, t_end = res.stage_ends[1]

        def replay(params):
            """Stage 1 alone, then stage 2's steps by hand with ``params``."""
            rng = RandomSource(5)
            solo = stagewise_run(
                problem, fset, StageSchedule(stages=[p1]), np.full(5, 0.2), rng
            )
            state = solo.state
            for _ in range(p2.iters):
                pmvr_step(state, problem, fset, params, rng)
            return state

        state = replay(p2)
        assert state.t == t_end == 22
        assert np.array_equal(state.x, x_end)
        assert all(np.array_equal(a, b) for a, b in zip(state.u, u_end, strict=True))
        assert np.array_equal(state.v, v_end)
        # stage 2's steps at stage 1's alpha end elsewhere
        assert not np.array_equal(replay(replace(p2, alpha=p1.alpha)).v, v_end)

    def test_two_stages_concatenate_into_one_run(self):
        problem = two_level_tracking_problem()
        fset = Simplex(5)
        params = SolverParams(eta=0.05, alpha=0.3, b0=4, b1=2, iters=9)
        both = StageSchedule(stages=[params, params])
        cfg = TraceConfig()
        staged = stagewise_run(problem, fset, both, np.full(5, 0.2), RandomSource(6), trace=cfg)
        single = pmvr_run(
            problem, fset,
            SolverParams(eta=0.05, alpha=0.3, b0=4, b1=2, iters=18),
            np.full(5, 0.2), RandomSource(6), trace=cfg,
        )
        assert len(staged.iterates) == len(single.iterates) == 19
        for xa, xb in zip(staged.iterates, single.iterates):
            assert np.array_equal(xa, xb)

    def test_stage_rows_are_tagged(self):
        problem = two_level_tracking_problem()
        fset = Simplex(5)
        p = SolverParams(eta=0.05, alpha=0.3, b0=2, b1=1, iters=4)
        schedule = StageSchedule(stages=[p, p])
        res = stagewise_run(problem, fset, schedule, np.full(5, 0.2), RandomSource(7))
        stages = {row.stage for row in res.trace}
        assert stages == {0, 1, 2}


class TestSchedules:
    def test_theorem1_example(self):
        params = schedule_for("fw_gap", "constant", 0.1)
        assert params.eta == pytest.approx(0.01)
        assert params.alpha == pytest.approx(0.01)
        assert params.b1 == 1
        assert params.iters == 1000
        assert params.b0 == 10
        assert params.subsolver is None

    def test_theorem4_example(self):
        params = schedule_for("grad_map", "large", 0.01)
        assert params.b1 == 10
        assert params.subsolver.inner_iters == 100
        assert params.eta == 1.0
        assert params.alpha == pytest.approx(0.1)
        assert params.iters == 100

    def test_clamp_boundary(self):
        params = schedule_for("fw_gap", "constant", 1.0)
        assert params.eta == 1.0 and params.alpha == 1.0
        assert params.b0 == params.b1 == params.iters == 1

    def test_monotone_in_eps(self):
        for criterion, mode in [
            ("fw_gap", "constant"), ("fw_gap", "large"),
            ("grad_map", "constant"), ("grad_map", "large"),
        ]:
            prev = None
            for eps in (0.5, 0.2, 0.1, 0.05):
                p = schedule_for(criterion, mode, eps)
                if prev is not None:
                    assert p.eta <= prev.eta and p.alpha <= prev.alpha
                    assert p.iters >= prev.iters and p.b1 >= prev.b1
                    if p.subsolver is not None:
                        assert p.subsolver.inner_iters >= prev.subsolver.inner_iters
                prev = p

    def test_stage_counts_grow_as_eps_shrinks(self):
        small = schedule_for("convex_gap", "constant", 0.01)
        large = schedule_for("convex_gap", "constant", 0.25)
        assert len(small.stages) > len(large.stages)
        assert small.targets[-1] <= 0.01

    def test_stage_schedule_monotone_by_construction(self):
        sched = schedule_for("strongly_convex_gap", "constant", 0.02, strong_convexity=2.0)
        etas = [p.eta for p in sched.stages]
        assert etas == sorted(etas, reverse=True)
        iters = [p.iters for p in sched.stages]
        assert iters == sorted(iters)
        assert sched.stages[0].subsolver.coeff == pytest.approx(1.0)

    def test_missing_modulus_rejected(self):
        with pytest.raises(ValueError):
            schedule_for("strongly_convex_gap", "constant", 0.1)
        for lam in (0.0, -1.0):
            with pytest.raises(ValueError, match="positive modulus"):
                schedule_for("strongly_convex_gap", "large", 0.1, strong_convexity=lam)

    def test_unknown_criterion_or_mode_refused(self):
        with pytest.raises(ValueError, match="unknown criterion"):
            schedule_for("optimal_gap", "constant", 0.1)
        with pytest.raises(ValueError, match="unknown batch mode"):
            schedule_for("fw_gap", "huge", 0.1)

    def test_eps_range(self):
        with pytest.raises(ValueError):
            schedule_for("fw_gap", "constant", 0.0)
        with pytest.raises(ValueError):
            schedule_for("fw_gap", "constant", 1.5)


def _closed_forms(c, lam):
    """Each theorem's (eta, alpha, B0, B1, T) at accuracy e, unclamped and
    unrounded, with every product and quotient written in the order of
    evaluation that ``schedule_for`` must reproduce bit for bit."""
    sqrt = math.sqrt
    return {
        ("fw_gap", "constant"): lambda e: (
            c.eta * e**2, c.alpha * e**2, c.b0 / e, c.b1, c.t / e**3),
        ("fw_gap", "large"): lambda e: (
            c.eta * e, c.alpha * e, c.b0 / e, c.b1 / e, c.t / e**2),
        ("grad_map", "constant"): lambda e: (
            c.eta * sqrt(e), c.alpha * e, c.b0 / sqrt(e), c.b1, c.t / e**1.5),
        ("grad_map", "large"): lambda e: (
            c.eta, c.alpha * sqrt(e), c.b0 / sqrt(e), c.b1 / sqrt(e), c.t / e),
        ("convex_gap", "constant"): lambda e: (
            c.eta * e**2, c.alpha * e**2, c.b0, c.b1, c.t / e**2),
        ("convex_gap", "large"): lambda e: (
            c.eta * e, c.alpha * e, c.b0, c.b1 / e, c.t / e),
        ("strongly_convex_gap", "constant"): lambda e: (
            c.eta * lam * e, c.alpha * lam * e, c.b0 * max(1.0 / lam, 1.0),
            c.b1, c.t / (lam * e)),
        ("strongly_convex_gap", "large"): lambda e: (
            c.eta * lam, c.alpha * lam, c.b0 * max(1.0 / lam, 1.0),
            c.b1 / e, c.t / lam),
    }


def _expected_schedule(criterion, mode, eps, c, lam, beta):
    form = _closed_forms(c, lam)[criterion, mode]
    sub = None
    if criterion == "grad_map":
        sub = QuadraticSubsolver(coeff=beta, inner_iters=solvers._int_ceil(c.n / eps))
    elif criterion == "strongly_convex_gap":
        sub = QuadraticSubsolver(coeff=lam / 2.0,
                                 inner_iters=solvers._int_ceil(c.n * lam / eps))

    def params(e):
        eta, alpha, b0, b1, t = form(e)
        return SolverParams(
            eta=solvers._clamp01(eta), alpha=solvers._clamp01(alpha),
            b0=solvers._int_ceil(b0), b1=solvers._int_ceil(b1),
            iters=solvers._int_ceil(t), subsolver=sub,
        )

    if criterion in ("fw_gap", "grad_map"):
        return params(eps)
    n_stages = max(1, math.ceil(math.log2(c.eps1 / eps) - 1e-12)) if eps < c.eps1 else 1
    targets = [c.eps1 / 2**s for s in range(1, n_stages + 1)]
    return StageSchedule(stages=[params(e) for e in targets], eps1=c.eps1)


_EPS_V2 = 2000.0 ** (-2.0 / 3.0)
_SCHEDULE_CONSTANTS = [
    ScheduleConstants(),
    # the matrix recipe's thm3 constants
    ScheduleConstants(eta=0.126, alpha=8.0, b1=8.0, b0=16.0, n=10.0 * _EPS_V2),
    # md-portfolio's thm1 and thm3 constants; eps1 = 0.7 makes stage targets
    # that are not powers of two, on which c.eta * lam * e and
    # c.eta * e * lam round differently (with lam = 3)
    ScheduleConstants(alpha=3.0, b1=8.0, b0=10.0),
    ScheduleConstants(eta=0.45, alpha=1.0, b1=8.0, b0=22.4, n=0.5, eps1=0.7),
]


@pytest.mark.parametrize("criterion, mode", list(cli.THEOREMS.values()))
def test_schedules_equal_each_theorems_closed_form_exactly(criterion, mode):
    for eps in (1.0, 0.1, 1 / 64, _EPS_V2):
        for c in _SCHEDULE_CONSTANTS:
            for lam in (0.3, 3.0):
                got = schedule_for(criterion, mode, eps, constants=c,
                                   strong_convexity=lam, beta=0.01)
                assert got == _expected_schedule(criterion, mode, eps, c, lam, 0.01), (
                    eps, c, lam)


@pytest.mark.parametrize("criterion, mode", list(cli.THEOREMS.values()))
def test_an_overflowing_schedule_raises_arithmetic_error(criterion, mode):
    with pytest.raises(ArithmeticError):
        schedule_for(criterion, mode, 1e-320, strong_convexity=2.0)



class TestBaseline:
    def quadratic_box_problem(self):
        c = np.array([0.5, -0.25])

        def draw(gen, n):
            return np.zeros(n)

        level = Level(
            2, 1,
            lambda x, s: np.full((len(s), 1), (x - c) @ (x - c)),
            lambda x, s: np.broadcast_to((2 * (x - c)).reshape(-1, 1), (len(s), 2, 1)),
            lambda x: np.array([(x - c) @ (x - c)]),
            lambda x: (2 * (x - c)).reshape(-1, 1),
            samples=GenerativeSamples(draw),
        )
        return CompositionalProblem([level]), Box([-1.0, -1.0], [1.0, 1.0])

    def test_monotone_decrease_on_noiseless_quadratic(self):
        problem, box = self.quadratic_box_problem()
        res = projected_baseline_run(
            problem, box, SolverParams(eta=0.1, alpha=1.0, b0=1, b1=1, iters=30),
            np.array([0.9, 0.9]), RandomSource(8), trace=TraceConfig(metric_every=1),
        )
        objs = [row.objective for row in res.trace]
        assert all(b <= a + 1e-12 for a, b in zip(objs, objs[1:]))

    def test_feasible_and_deterministic(self):
        problem = two_level_tracking_problem()
        fset = Simplex(5)
        params = SolverParams(eta=0.05, alpha=0.5, b0=2, b1=2, iters=20)
        a = projected_baseline_run(problem, fset, params, np.full(5, 0.2), RandomSource(9))
        b = projected_baseline_run(problem, fset, params, np.full(5, 0.2), RandomSource(9))
        for xa, xb in zip(a.iterates, b.iterates):
            assert np.array_equal(xa, xb)
            assert fset.contains(xa, 1e-9)
        assert a.state.counters.lmo == 0
        assert a.state.counters.sfo == 20 * 2 * 2


def test_oversized_batch_warns_once_per_run(monkeypatch):
    """Each batch size above a 2-record dataset warns once per run, before
    the run's first draw; the baseline never checks its unused B0. The
    (B0, B1) cases run in one test, so a case fails with its sizes named."""
    data = PortfolioData(np.array([[0.01, 0.0], [0.0, 0.01]]))
    problem = mean_variance_problem(data, 1.0)
    fset = Simplex(2)
    x1 = np.array([0.5, 0.5])
    draw = FiniteSamples.draw
    warned_at_first_draw = []

    def recorded_draw(self, gen, count):
        if not warned_at_first_draw:
            warned_at_first_draw.append(len(caught))
        return draw(self, gen, count)

    monkeypatch.setattr(FiniteSamples, "draw", recorded_draw)
    for b0, b1 in [(1, 5), (3, 1), (3, 5), (2, 2)]:
        params = SolverParams(eta=0.1, alpha=0.5, b0=b0, b1=b1, iters=3)
        b0_warning = [f"B0 = {b0}"] if b0 > 2 else []
        b1_warning = [f"B1 = {b1}"] if b1 > 2 else []
        for run, want in ((pmvr_run, b0_warning + b1_warning),
                          (projected_baseline_run, b1_warning)):
            warned_at_first_draw.clear()
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                run(problem, fset, params, x1, RandomSource(17))
            case = (b0, b1, run.__name__)
            assert sorted(str(w.message) for w in caught) == sorted(
                f"batch size {name} exceeds dataset size 2; sampling with replacement"
                for name in want
            ), case
            assert all(w.category is UserWarning for w in caught), case
            assert warned_at_first_draw == [len(want)], case


def test_oversized_batch_warnings_name_the_entry_points_caller():
    """Both warnings point at the line that called the entry point, not at
    a line inside the solvers, for all three entry points."""
    data = PortfolioData(np.array([[0.01, 0.0], [0.0, 0.01]]))
    problem = mean_variance_problem(data, 1.0)
    params = SolverParams(eta=0.1, alpha=0.5, b0=3, b1=5, iters=2)
    for run, schedule, count in ((pmvr_run, params, 2),
                                 (stagewise_run, StageSchedule([params]), 2),
                                 (projected_baseline_run, params, 1)):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            run(problem, Simplex(2), schedule, np.array([0.5, 0.5]), RandomSource(17))
        assert [w.filename for w in caught] == [__file__] * count, run.__name__


@pytest.mark.parametrize("run", [pmvr_run, stagewise_run, projected_baseline_run])
@pytest.mark.parametrize("case", ["simplex", "nuclear_ball"])
def test_an_infeasible_start_point_is_refused(run, case):
    """Every entry point refuses a start point outside its set: on the
    simplex one whose weights sum to 2, on the unit nuclear ball one of
    nuclear norm 3."""
    if case == "simplex":
        problem, fset, x1 = tracking_case()
        x1 = 2.0 * x1
    else:
        problem, fset, _ = single_index_case()
        x1 = np.eye(4, 3)
    params = SolverParams(eta=0.1, alpha=0.5, b0=2, b1=2, iters=2)
    schedule = StageSchedule([params]) if run is stagewise_run else params
    with pytest.raises(FeasibilityError, match="^initial point is infeasible$"):
        run(problem, fset, schedule, x1, RandomSource(0))


def box_case():
    box = Box([0.0, 0.0], [1.0, 1.0])
    return quadratic_distance_problem(np.array([2.0, -1.0]), box), box, np.array([0.5, 0.5])


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("case", ["simplex", "box", "nuclear_ball"])
def test_a_non_finite_start_point_or_anchor_is_refused_as_infeasible(case, bad, capfd):
    """On every set a start point or a subsolver anchor with a NaN or an
    infinity is infeasible: the run and the subsolver raise FeasibilityError
    before any step, and LAPACK writes nothing to stderr."""
    cases = {"simplex": tracking_case, "box": box_case, "nuclear_ball": single_index_case}
    problem, fset, x1 = cases[case]()
    x1 = np.array(x1, dtype=np.float64)
    x1.flat[1] = bad
    params = SolverParams(eta=0.1, alpha=0.5, b0=2, b1=2, iters=2)
    with pytest.raises(FeasibilityError, match="^initial point is infeasible$"):
        pmvr_run(problem, fset, params, x1, RandomSource(0))
    with pytest.raises(FeasibilityError, match="^subsolver anchor point is infeasible$"):
        quadratic_fw_subsolve(np.ones(fset.shape), x1, 1.0, 3, fset)
    assert capfd.readouterr().err == ""


def test_baseline_averages_exact_values_and_takes_the_chain_gradient_at_them():
    """With zero-noise oracles, the baseline's trackers after each step are
    the moving averages (1 - alpha) * u + alpha * f_i(.) of the exact inner
    values along the averaged chain, and its gradient is the exact chain
    gradient at those averages."""
    problem = two_level_tracking_problem(value_noise=0.0, jac_noise=0.0)
    fset = Simplex(5)
    alpha = 0.3
    params = SolverParams(eta=0.2, alpha=alpha, b0=1, b1=3, iters=3)
    rng = RandomSource(4)
    state = _start_state(problem, fset, np.full(5, 0.2))
    u = [None]
    for _ in range(3):
        x = state.x
        _baseline_step(state, problem, fset, params, rng)
        point = x
        for i, level in enumerate(problem.levels[:-1]):
            value = level.exact_value(point)
            u[i] = value if u[i] is None else (1.0 - alpha) * u[i] + alpha * value
            point = u[i]
        jac = problem.levels[0].exact_jacobian(x) @ problem.levels[1].exact_jacobian(u[0])
        for got, want in zip(state.u + [state.v], u + [jac.reshape(-1)]):
            np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-15)


def test_solver_params_validation():
    with pytest.raises(ValueError):
        SolverParams(eta=1.2, alpha=0.5, b0=1, b1=1, iters=1)
    with pytest.raises(ValueError):
        SolverParams(eta=0.5, alpha=0.0, b0=1, b1=1, iters=1)
    with pytest.raises(ValueError):
        SolverParams(eta=0.5, alpha=0.5, b0=0, b1=1, iters=1)
    with pytest.raises(ValueError):
        QuadraticSubsolver(coeff=-1.0, inner_iters=5)
    # eta = 0 stays a valid (degenerate) convex combination
    SolverParams(eta=0.0, alpha=1.0, b0=1, b1=1, iters=1)


@pytest.mark.parametrize("value", [2.5, 2.0, "2", None])
@pytest.mark.parametrize("name", ["b0", "b1", "iters"])
def test_solver_params_refuse_a_count_that_is_not_an_integer(name, value):
    """A fractional b0 would draw int(b0)-sample batches while expected_sfo
    counts b0 of them, and a fractional iters would fail in ``range``."""
    counts = {"b0": 2, "b1": 2, "iters": 3, name: value}
    with pytest.raises(ValueError, match=f"^{name} must be an integer"):
        SolverParams(eta=0.1, alpha=0.5, **counts)


@pytest.mark.parametrize("value", [2.5, 3.0, "3"])
def test_subsolver_refuses_an_inner_iteration_count_that_is_not_an_integer(value):
    with pytest.raises(ValueError, match="^inner_iters must be an integer"):
        QuadraticSubsolver(coeff=1.0, inner_iters=value)


@pytest.mark.parametrize("coeff", [math.nan, math.inf, 0.0])
def test_subsolver_refuses_a_coefficient_that_is_not_positive_and_finite(coeff):
    with pytest.raises(ValueError, match="^subsolver coefficient must be positive and finite"):
        QuadraticSubsolver(coeff=coeff, inner_iters=3)


@pytest.mark.parametrize("coeff, n_iters, bad, message", [
    (1.0, 2.5, None, "^n_iters must be an integer >= 1"),
    (1.0, 3.0, None, "^n_iters must be an integer >= 1"),
    (1.0, "3", None, "^n_iters must be an integer >= 1"),
    (math.nan, 3, None, "^coeff must be positive and finite"),
    (math.inf, 3, None, "^coeff must be positive and finite"),
    (1.0, 3, math.nan, "non-finite entry over Simplex$"),
    (1.0, 3, -math.inf, "non-finite entry over Simplex$"),
])
def test_public_subsolver_refuses_arguments_it_cannot_run(coeff, n_iters, bad, message):
    """A fractional count used to fail in ``range`` with a TypeError, and a
    NaN coefficient or direction entry to return a point."""
    v = np.ones(3)
    if bad is not None:
        v[0] = bad
    with pytest.raises(ValueError, match=message):
        quadratic_fw_subsolve(v, np.full(3, 1.0 / 3.0), coeff, n_iters, Simplex(3))


COUNTS = {
    "Simplex": (lambda n: Simplex(n), "simplex dimension"),
    "NuclearNormBall.m": (lambda n: NuclearNormBall(n, 2, 1.0), "matrix dimension m"),
    "NuclearNormBall.n": (lambda n: NuclearNormBall(2, n, 1.0), "matrix dimension n"),
    **{f"SolverParams.{name}": (
        lambda n, name=name: SolverParams(
            eta=0.1, alpha=0.5, **{"b0": 2, "b1": 2, "iters": 3, name: n}),
        name,
    ) for name in ("b0", "b1", "iters")},
    "QuadraticSubsolver": (lambda n: QuadraticSubsolver(coeff=1.0, inner_iters=n), "inner_iters"),
    "TraceConfig": (lambda n: TraceConfig(metric_every=n), "metric_every"),
    "quadratic_fw_subsolve": (
        lambda n: quadratic_fw_subsolve(np.ones(3), np.full(3, 1.0 / 3.0), 1.0, n, Simplex(3)),
        "n_iters",
    ),
}


@pytest.mark.parametrize("value", [True, False])
@pytest.mark.parametrize("where", COUNTS)
def test_every_count_refuses_a_boolean(where, value):
    """``operator.index(True)`` is 1, so ``Simplex(True)`` used to build a
    1-simplex and ``SolverParams`` to keep ``iters=True``."""
    build, what = COUNTS[where]
    with pytest.raises(ValueError, match=f"^{what} must be an integer >= 1, got {value}$"):
        build(value)


def test_run_objects_take_numpy_integers():
    params = SolverParams(eta=0.1, alpha=0.5, b0=np.int64(2), b1=np.int32(3), iters=np.uint8(4),
                          subsolver=QuadraticSubsolver(coeff=1.0, inner_iters=np.int16(2)))
    assert (params.b0, params.b1, params.iters, params.subsolver.inner_iters) == (2, 3, 4, 2)
    assert TraceConfig(metric_every=np.int64(5)).metric_every == 5


@pytest.mark.parametrize("metric_every", [0, -5, 2.5])
def test_trace_config_refuses_a_metric_cadence_below_one(metric_every):
    """0 used to fall back to the default cadence and -5 to act like 5."""
    with pytest.raises(ValueError, match="^metric_every must be"):
        TraceConfig(metric_every=metric_every)


@pytest.mark.parametrize("beta", [0.0, -1.0, math.nan])
def test_trace_config_refuses_a_beta_that_is_not_positive(beta):
    """Refused at construction, not at row 0 after the B0 draw."""
    with pytest.raises(ValueError, match="^beta must be positive"):
        TraceConfig(beta=beta)


def test_variance_reduction_beats_plain_minibatch():
    # time-averaged tracker error under slow drift, small momentum vs none
    fset = Simplex(5)
    x1 = np.full(5, 0.2)
    errors = {}
    for alpha in (0.1, 1.0):
        acc = 0.0
        for seed in range(10):
            problem = two_level_tracking_problem(data_seed=0)
            params = SolverParams(eta=0.01, alpha=alpha, b0=8, b1=1, iters=400)
            res = pmvr_run(
                problem, fset, params, x1, RandomSource(100 + seed),
                trace=TraceConfig(
                    keep_iterates=False,
                    track_gradient_error=True, metric_every=400,
                ),
            )
            acc += float(res.gradient_errors[100:].mean())
        errors[alpha] = acc / 10
    assert errors[0.1] < errors[1.0]


@pytest.mark.filterwarnings("ignore:batch size B0 = .* exceeds dataset size:UserWarning")
@settings(max_examples=25, deadline=None)
@given(
    k=st.integers(1, 3),
    b0=st.integers(1, 6),
    b1s=st.lists(st.integers(1, 4), min_size=1, max_size=3),
    iters=st.lists(st.integers(1, 5), min_size=3, max_size=3),
    n_inner=st.one_of(st.none(), st.integers(1, 3)),
)
def test_counters_match_closed_forms_for_every_entry_point(k, b0, b1s, iters, n_inner):
    problem, _ = counted_problem(k)
    fset = Simplex(3)
    x1 = np.full(3, 1 / 3)
    cfg = TraceConfig(keep_iterates=False)
    sub = None if n_inner is None else QuadraticSubsolver(1.0, n_inner)
    lmo_per_step = 1 if n_inner is None else n_inner

    p = SolverParams(eta=0.1, alpha=0.4, b0=b0, b1=b1s[0], iters=iters[0], subsolver=sub)
    res = pmvr_run(problem, fset, p, x1, RandomSource(1), trace=cfg)
    assert res.state.counters.sfo == expected_sfo(p.iters, k, b0, p.b1)
    assert res.state.counters.lmo == expected_lmo(p.iters, n_inner)

    base = SolverParams(eta=0.1, alpha=0.4, b0=b1s[0], b1=b1s[0], iters=iters[0])
    res = projected_baseline_run(problem, fset, base, x1, RandomSource(2), trace=cfg)
    assert res.state.counters.sfo == expected_baseline_sfo(iters[0], k, b1s[0])
    assert res.state.counters.lmo == 0

    ts = sorted(iters[: len(b1s)])
    stages = [SolverParams(eta=0.1, alpha=0.4, b0=b0, b1=b, iters=t, subsolver=sub)
              for b, t in zip(b1s, ts)]
    schedule = StageSchedule(stages=stages)
    res = stagewise_run(problem, fset, schedule, x1, RandomSource(3), trace=cfg)
    want = k * b0 + k * b1s[0] + 2 * (ts[0] - 1) * k * b1s[0]
    want += sum(2 * t * k * b for b, t in zip(b1s[1:], ts[1:]))
    assert res.state.counters.sfo == want
    assert res.state.counters.lmo == sum(ts) * lmo_per_step
    assert [end[3] for end in res.stage_ends] == list(np.cumsum(ts))


def test_metric_row_makes_one_exact_pass():
    problem, _ = counted_problem(2)
    calls = []
    problem.levels = [
        Level(lv.in_dim, lv.out_dim, lv.value, lv.jacobian,
              lambda u, f=lv.exact_value: calls.append("value") or f(u),
              lambda u, f=lv.exact_jacobian: calls.append("jacobian") or f(u),
              samples=lv.samples)
        for lv in problem.levels
    ]
    params = SolverParams(eta=0.1, alpha=0.4, b0=2, b1=1, iters=3)
    res = pmvr_run(problem, Simplex(3), params, np.full(3, 1 / 3), RandomSource(4),
                   trace=TraceConfig(metric_every=1))
    rows, k = len(res.trace), problem.k
    assert calls.count("value") == rows * k
    assert calls.count("jacobian") == rows * k


def drifting_nan_problem(nan_level, d=4):
    """F(x) = sum(A x) on the simplex, its last level the identity so that
    levels 1 and 2 are tracked, whose level ``nan_level`` value oracle
    returns NaN once its input differs from the first one it saw."""
    a = np.arange(1.0, 2.0 * d + 1).reshape(2, d) / d
    first = {}

    def noisy(level, f):
        def value(x, s):
            x0 = first.setdefault(level, x.copy())
            fx = f(x) if level != nan_level or np.array_equal(x, x0) else f(x) * np.nan
            return np.broadcast_to(fx, (len(s), fx.size))
        return value

    levels = [
        Level(d, 2, noisy(1, lambda x: a @ x), lambda x, s: np.broadcast_to(a.T, (len(s), d, 2)),
              lambda x: a @ x, lambda x: a.T.copy(), samples=FiniteSamples(3)),
        Level(2, 1, noisy(2, lambda y: np.array([y.sum()])), lambda y, s: np.ones((len(s), 2, 1)),
              lambda y: np.array([y.sum()]), lambda y: np.ones((2, 1)),
              samples=FiniteSamples(3)),
        Level(1, 1, noisy(3, lambda z: z.copy()), lambda z, s: np.ones((len(s), 1, 1)),
              lambda z: z.copy(), lambda z: np.ones((1, 1)), samples=FiniteSamples(3)),
    ]
    return CompositionalProblem(levels), Simplex(d), np.full(d, 1.0 / d)


class TestNonFiniteGuard:
    @pytest.mark.parametrize("nan_level", [1, 2])
    def test_nan_value_oracle_stops_the_run_naming_iteration_and_level(self, nan_level):
        problem, fset, x1 = drifting_nan_problem(nan_level)
        params = SolverParams(eta=0.1, alpha=0.5, b0=2, b1=2, iters=10)
        with pytest.raises(NonFiniteStateError) as err:
            pmvr_run(problem, fset, params, x1, RandomSource(0))
        # iteration 1 still evaluates at the start point; the iterate has moved by 2
        assert (err.value.iteration, err.value.level) == (2, nan_level)
        assert f"u[{nan_level}] is non-finite at iteration 2" in str(err.value)

    def test_nan_jacobian_stops_the_run_at_initialization(self):
        problem, fset, x1 = drifting_nan_problem(None)
        problem.levels[0] = replace(
            problem.levels[0], jacobian=lambda x, s: np.full((len(s), 4, 2), np.nan)
        )
        params = SolverParams(eta=0.1, alpha=0.5, b0=2, b1=2, iters=10)
        with pytest.raises(NonFiniteStateError) as err:
            projected_baseline_run(problem, fset, params, x1, RandomSource(0))
        assert (err.value.iteration, err.value.level) == (1, None)
        with pytest.raises(NonFiniteStateError) as err:
            pmvr_run(problem, fset, params, x1, RandomSource(0))
        assert (err.value.iteration, err.value.level) == (0, None)

    def test_a_non_finite_gradient_tracker_is_named_in_the_message(self):
        problem, fset, x1 = drifting_nan_problem(None)
        problem.levels[1] = replace(
            problem.levels[1], jacobian=lambda y, s: np.full((len(s), 2, 1), np.inf)
        )
        params = SolverParams(eta=0.1, alpha=0.5, b0=2, b1=2, iters=10)
        with pytest.raises(NonFiniteStateError) as err:
            pmvr_run(problem, fset, params, x1, RandomSource(0))
        assert str(err.value) == "gradient tracker v is non-finite at iteration 0"

    @pytest.mark.parametrize("where, level", [("x", 0), ("u", 2), ("v", None)])
    def test_finite_state_whose_total_overflows_passes_silently(self, where, level):
        # the iterate sums to +inf and the gradient tracker to -inf, so a
        # total of the entries would overflow and then turn NaN
        state = SolverState(
            x=np.array([1e308, 1e308]), counters=OracleCounters(),
            u=[np.array([1e308, 1e308]), np.array([1.0])], v=np.array([-1e308, -1e308]),
        )
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            _check_finite(state, 3)
        if where == "u":
            state.u[1] = np.array([np.inf])
        else:
            setattr(state, where, np.array([1e308, np.inf]))
        with pytest.raises(NonFiniteStateError) as err:
            _check_finite(state, 3)
        assert (err.value.iteration, err.value.level) == (3, level)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("where, level", [
        ("x", 0), ("u0", 1), ("u1", 2), ("u2", 3), ("v", None),
    ])
    def test_a_non_finite_entry_names_its_iteration_and_level(self, bad, where, level):
        # a K = 3 state; every array before the bad one is finite
        state = SolverState(
            x=np.full((2, 3), 0.5), counters=OracleCounters(),
            u=[np.arange(4.0), np.array([-1.0, 2.0]), np.array([3.0])], v=np.full((2, 3), -0.25),
        )
        _check_finite(state, 7)
        if where.startswith("u"):
            state.u[int(where[1])][-1] = bad
        else:
            getattr(state, where)[1, 2] = bad
        with pytest.raises(NonFiniteStateError) as err:
            _check_finite(state, 7)
        assert (err.value.iteration, err.value.level) == (7, level)

    def test_a_finite_state_allocates_no_iterate_sized_temporary(self):
        gen = np.random.default_rng(0)
        state = SolverState(
            x=gen.standard_normal((200, 200)), counters=OracleCounters(),
            u=[gen.standard_normal(1)], v=gen.standard_normal((200, 200)),
        )
        _check_finite(state, 1)
        tracemalloc.start()
        try:
            _check_finite(state, 1)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 200 * 200  # less than even a boolean mask of the iterate

    def test_cli_exits_two(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setattr(cli, "build_problem", lambda spec: drifting_nan_problem(1))
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({
            "problem": {"name": "mean_variance", "source": {"kind": "synthetic", "d": 4}},
            "algorithm": "pmvr",
            "schedule": {"explicit": {"eta": 0.1, "alpha": 0.5, "b1": 2, "t": 10}},
            "seed": 0,
            "out": str(tmp_path / "o"),
        }))
        assert cli.main(["run", "--config", str(path)]) == 2
        assert "value tracker u[1] is non-finite at iteration 2" in capsys.readouterr().err


# --- per-level sample streams ------------------------------------------------


def portfolio_case():
    data = synthetic_portfolio_data(d=5, periods=60, data_seed=1)
    return mean_deviation_problem(data, 1.0), Simplex(5), np.full(5, 0.2)


def single_index_case():
    problem, ball = single_index_problem(SingleIndexConfig(m=4, n=3, sigma=0.1))
    return problem, ball, problem.x_start


def tracking_case():
    return two_level_tracking_problem(data_seed=2), Simplex(5), np.full(5, 0.2)


STREAM_CASES = {
    "portfolio": portfolio_case,
    "single_index": single_index_case,
    "two_level_tracking": tracking_case,
}


def batch_arrays(batch):
    return batch if isinstance(batch, tuple) else (batch,)


def drawn(level, batch):
    """A batch as samples: a generative level's _Stream drawn whole from its
    level's generator, as the walk would draw it."""
    if isinstance(batch, _Stream):
        return sample_batch(level, batch.gen, batch.size)
    return batch


# B0 then step batches: of two stages, of one sample each, and of sizes
# that cross a finite level's chunk of indices drawn ahead
SIZE_RUNS = [(5, 3, 3, 7), (1,) * 9, (rng_module.CHUNK - 1, 2, rng_module.CHUNK), (300, 257, 1)]


@pytest.mark.parametrize("sizes", SIZE_RUNS)
@pytest.mark.parametrize("name", sorted(STREAM_CASES))
def test_level_batches_continue_one_split_generator_per_level(name, sizes):
    """Successive batches of a B0 and then B1s are the successive draws of
    one fresh generator per level, ``split(i)``'s."""
    problem, _, _ = STREAM_CASES[name]()
    rng = RandomSource(29)
    gens = [RandomSource(29).split(i).generator for i in range(1, problem.k + 1)]
    for size in sizes:
        batches = _level_batches(problem, rng, size)
        got = [drawn(level, b) for level, b in zip(problem.levels, batches)]
        want = [sample_batch(level, gen, size) for level, gen in zip(problem.levels, gens)]
        assert len(got) == len(want) == problem.k
        for g, w in zip(got, want):
            pairs = zip(batch_arrays(g), batch_arrays(w), strict=True)
            assert all(np.array_equal(a, b) for a, b in pairs)


def trace_values(result):
    return [replace(row, seconds=0.0) for row in result.trace], result.x_final


RUNS = {
    "pmvr": lambda p, fset, x1, rng: pmvr_run(
        p, fset, SolverParams(eta=0.05, alpha=0.3, b0=4, b1=3, iters=12), x1, rng
    ),
    "stagewise": lambda p, fset, x1, rng: stagewise_run(
        p, fset,
        StageSchedule(
            stages=[
                SolverParams(eta=0.05, alpha=0.3, b0=4, b1=2, iters=6),
                SolverParams(eta=0.02, alpha=0.2, b0=4, b1=3, iters=7),
            ],
        ),
        x1, rng,
    ),
    "baseline": lambda p, fset, x1, rng: projected_baseline_run(
        p, fset, SolverParams(eta=0.05, alpha=0.5, b0=3, b1=3, iters=12), x1, rng
    ),
}


@pytest.mark.parametrize("name", sorted(STREAM_CASES))
@pytest.mark.parametrize("run", sorted(RUNS))
def test_runs_keep_their_trace_whatever_the_chunk(name, run, monkeypatch):
    problem, fset, x1 = STREAM_CASES[name]()
    rows, x_final = trace_values(RUNS[run](problem, fset, x1, RandomSource(31)))
    monkeypatch.setattr(rng_module, "CHUNK", 3)
    want_rows, want_x = trace_values(RUNS[run](problem, fset, x1, RandomSource(31)))
    assert rows == want_rows
    assert np.array_equal(x_final, want_x)


@pytest.mark.parametrize("run", sorted(RUNS))
def test_a_second_run_on_a_source_continues_its_level_streams(run):
    """A source is a stream: a second run on it draws new batches (tau
    comes from a fresh split, so it is the same), and a new source with the
    seed reproduces the first run."""
    problem, fset, x1 = portfolio_case()
    rng = RandomSource(31)
    first, second = (RUNS[run](problem, fset, x1, rng) for _ in range(2))
    again = RUNS[run](problem, fset, x1, RandomSource(31))
    assert trace_values(again)[0] == trace_values(first)[0]
    assert trace_values(second)[0] != trace_values(first)[0]
    assert second.tau == first.tau


def trackers(result):
    return [*result.state.u, result.state.v]


@pytest.mark.parametrize("name", sorted(STREAM_CASES))
@pytest.mark.parametrize("run", sorted(RUNS))
def test_a_second_run_on_a_source_ends_with_other_trackers(run, name):
    """The trackers are batch means, so a second run on a source, which
    continues its level streams, ends with other trackers, and a new source
    with the seed ends with the first run's. (An iterate can repeat: on the
    simplex every step may pick the same vertex whatever the noise.)"""
    problem, fset, x1 = STREAM_CASES[name]()
    rng = RandomSource(31)
    first, second = (trackers(RUNS[run](problem, fset, x1, rng)) for _ in range(2))
    again = trackers(RUNS[run](problem, fset, x1, RandomSource(31)))
    assert all(np.array_equal(a, b) for a, b in zip(again, first, strict=True))
    assert all(not np.array_equal(a, b) for a, b in zip(second, first, strict=True))


def untouchable_problem():
    """A one-level problem whose oracles and sampler fail the test if used."""

    def fail(*args):
        raise AssertionError("the run started")

    return CompositionalProblem([Level(3, 1, fail, fail, fail, fail, GenerativeSamples(fail))])


@pytest.mark.parametrize("total", [2**20 - 1, 2**20, 2**32])
@pytest.mark.parametrize("run", sorted(RUNS))
def test_runs_of_any_length_start(run, total):
    """No iteration count is refused: a run of 2**20 iterations or more
    (the stage-wise run in two stages) starts and meets the oracles."""
    problem, fset, x1 = untouchable_problem(), Simplex(3), np.full(3, 1 / 3)
    params = SolverParams(eta=0.05, alpha=0.3, b0=2, b1=1, iters=total)
    stages = [replace(params, iters=total // 2), replace(params, iters=total - total // 2)]
    runs = {
        "pmvr": lambda: pmvr_run(problem, fset, params, x1, RandomSource(1)),
        "stagewise": lambda: stagewise_run(
            problem, fset, StageSchedule(stages=stages), x1, RandomSource(1)
        ),
        "baseline": lambda: projected_baseline_run(
            problem, fset, replace(params, alpha=0.5, b0=1), x1, RandomSource(1)
        ),
    }
    with pytest.raises(AssertionError, match="the run started"):
        runs[run]()


# --- certified feasibility on the nuclear ball ------------------------------


def nuclear_linear_problem(m, n, seed, dataset=4):
    """F(X) = <C, X> on m x n matrices, with C drawn from a small dataset, so
    that the LMO atoms change with the batch."""
    gen = np.random.default_rng(seed)
    cs = gen.standard_normal((dataset, m * n)) + gen.standard_normal(m * n)
    mean = cs.mean(axis=0)
    level = Level(
        m * n, 1,
        lambda x, s: (cs[s] @ x)[:, None],
        lambda x, s: cs[s][:, :, None],
        lambda x: np.array([mean @ x]),
        lambda x: mean[:, None],
        samples=FiniteSamples(dataset),
    )
    return CompositionalProblem([level], x_shape=(m, n))


SOLVER_STEPS = {
    "pmvr": (started, pmvr_step, None),
    "pmvr-v2": (started, pmvr_step, QuadraticSubsolver(coeff=1.0, inner_iters=3)),
    "baseline": (lambda problem, fset, params, x1, rng: _start_state(problem, fset, x1),
                 _baseline_step, None),
}


def nuclear_state(solver, m=4, n=3, radius=1.0, eta=1.0, seed=0, x1=None):
    init, step, sub = SOLVER_STEPS[solver]
    problem = nuclear_linear_problem(m, n, seed)
    fset = NuclearNormBall(m, n, radius)
    params = SolverParams(eta=eta, alpha=0.5, b0=2, b1=2, iters=10, subsolver=sub)
    x1 = np.zeros((m, n)) if x1 is None else x1
    rng = RandomSource(seed)
    state = init(problem, fset, params, x1, rng)

    def advance():
        return step(state, problem, fset, params, rng)

    return state, advance


@settings(max_examples=60, deadline=None)
@given(
    solver=st.sampled_from(sorted(SOLVER_STEPS)),
    m=st.integers(1, 7),
    n=st.integers(1, 7),
    log_radius=st.floats(-2.0, 2.0),
    eta=st.floats(0.0, 1.0),
    start=st.floats(0.0, 1.0),
    seed=st.integers(0, 2**16),
)
# a subnormal step size: its roundings err by an absolute 2**-1075
@example(solver="pmvr", m=1, n=2, log_radius=0.0, eta=5e-324, start=0.0, seed=0)
# baseline steps projected from the Gram matrix, at a Gram side of 20 in both orientations
@example(solver="baseline", m=20, n=24, log_radius=0.0, eta=1.0, start=0.5, seed=0)
@example(solver="baseline", m=24, n=20, log_radius=-1.0, eta=0.02, start=1.0, seed=3)
def test_carried_bound_covers_every_iterate(solver, m, n, log_radius, eta, start, seed):
    radius = 10.0**log_radius
    gen = np.random.default_rng(seed)
    g = gen.standard_normal((m, n))
    x1 = g * (start * radius / np.linalg.svd(g, compute_uv=False).sum())
    state, advance = nuclear_state(solver, m, n, radius, eta, seed, x1)
    assert state.bound >= np.linalg.svd(state.x, compute_uv=False).sum()
    for _ in range(10):
        advance()
        assert state.bound >= np.linalg.svd(state.x, compute_uv=False).sum()


@pytest.mark.parametrize("solver", ["pmvr", "pmvr-v2"])
def test_an_atom_past_the_radius_is_refused_at_its_iteration(solver, monkeypatch):
    state, advance = nuclear_state(solver)
    advance()
    advance()  # with eta = 1 the iterate now sits on the boundary

    def overshooting(matrix):
        sigma, u, v = top_singular_pair(matrix)
        return sigma, 1.01 * u, v

    monkeypatch.setattr(sets, "top_singular_pair", overshooting)
    with pytest.raises(FeasibilityError, match="at iteration 3$"):
        advance()
    assert state.t == 2  # the refused iterate is not taken


def test_a_projection_past_the_radius_is_refused_at_its_iteration(monkeypatch):
    state, advance = nuclear_state("baseline", eta=1.0)
    advance()
    advance()
    simplex_projection = sets.project_simplex
    monkeypatch.setattr(
        sets, "project_simplex", lambda p, total=1.0: 1.01 * simplex_projection(p, total)
    )
    with pytest.raises(FeasibilityError, match="at iteration 3$"):
        advance()
    assert state.t == 2


class DoubledAtomBall(NuclearNormBall):
    """A ball whose LMO returns twice its atom with the atom's own bound, so
    each step's certificate admits an iterate that only ``contains`` refuses."""

    def _lmo(self, direction):
        z, bound = super()._lmo(direction)
        return 2.0 * z, bound


def test_an_iterate_failing_the_full_check_is_refused_at_its_metric_row():
    problem, fset = nuclear_linear_problem(4, 3, 0), DoubledAtomBall(4, 3, 1.0)
    params = SolverParams(eta=0.9, alpha=0.5, b0=2, b1=2, iters=6)
    with pytest.raises(FeasibilityError,
                       match="^iterate fails the full feasibility check at iteration 3$"):
        pmvr_run(problem, fset, params, np.zeros((4, 3)), RandomSource(0),
                 trace=TraceConfig(metric_every=3))


def test_seconds_leave_out_the_metric_rows_and_their_full_checks(monkeypatch):
    """On a clock that a step moves by 1, a full check by 10 and a metric
    row by 100, each row's ``seconds`` counts the steps before it only."""
    clock = [0.0]

    def advancing(by, fn):
        def advanced(*args, **kwargs):
            clock[0] += by
            return fn(*args, **kwargs)
        return advanced

    problem, fset = nuclear_linear_problem(4, 3, 0), NuclearNormBall(4, 3, 1.0)
    monkeypatch.setattr(solvers, "time", SimpleNamespace(perf_counter=lambda: clock[0]))
    monkeypatch.setattr(solvers, "pmvr_step", advancing(1.0, pmvr_step))
    monkeypatch.setattr(solvers, "_metric_row", advancing(100.0, solvers._metric_row))
    monkeypatch.setattr(fset, "contains", advancing(10.0, fset.contains))
    params = SolverParams(eta=0.5, alpha=0.5, b0=2, b1=2, iters=6)
    result = pmvr_run(problem, fset, params, np.zeros((4, 3)), RandomSource(0),
                      trace=TraceConfig(metric_every=2))
    assert [(row.iteration, row.seconds) for row in result.trace] == [
        (0, 0.0), (2, 2.0), (4, 4.0), (6, 6.0)
    ]


def recording(calls, name, method):
    def recorded(self, *args, **kwargs):
        calls.append(name)
        return method(self, *args, **kwargs)
    return recorded


@pytest.mark.parametrize("solver", sorted(SOLVER_STEPS))
def test_full_checks_run_only_at_the_start_and_the_metric_rows(solver, monkeypatch):
    calls = []
    for name in ("contains", "_bound"):
        method = recording(calls, name, getattr(NuclearNormBall, name))
        monkeypatch.setattr(NuclearNormBall, name, method)
    problem, fset = nuclear_linear_problem(4, 3, 0), NuclearNormBall(4, 3, 1.0)
    x1 = np.zeros((4, 3))
    trace = TraceConfig(metric_every=5)
    if solver == "baseline":
        params = SolverParams(eta=0.5, alpha=0.5, b0=2, b1=2, iters=10)
        projected_baseline_run(problem, fset, params, x1, RandomSource(0), trace=trace)
    else:
        params = SolverParams(eta=0.5, alpha=0.5, b0=2, b1=2, iters=10,
                              subsolver=SOLVER_STEPS[solver][2])
        pmvr_run(problem, fset, params, x1, RandomSource(0), trace=trace)
    # the start point, then the metric rows after steps 5 and 10
    assert calls == ["_bound", "contains", "contains"]


def test_nan_iterate_stops_a_nuclear_ball_run_at_that_iteration(monkeypatch):
    problem, ball, x1 = single_index_case()

    def poisoned(state, *args):
        if state.t == 4:
            state.x = state.x.copy()
            state.x[1, 2] = np.nan
        return pmvr_step(state, *args)

    monkeypatch.setattr(solvers, "pmvr_step", poisoned)
    params = SolverParams(eta=0.1, alpha=0.5, b0=2, b1=2, iters=10)
    with pytest.raises(NonFiniteStateError) as err:
        pmvr_run(problem, ball, params, x1, RandomSource(0))
    assert (err.value.iteration, err.value.level) == (5, 0)
    assert str(err.value) == "iterate x is non-finite at iteration 5"


# --- what a set or an oracle returns is never written into -----------------


class CachedVertexSimplex(Simplex):
    """A simplex whose LMO returns one cached array per vertex, every time."""

    def __init__(self, d):
        super().__init__(d)
        self.vertices = np.eye(d)

    def _lmo(self, direction):
        return self.vertices[super()._lmo(direction)[0].argmax()], None


def cached_oracles(problem):
    """``problem`` with every level's value and Jacobian oracle answering a
    (point, batch) pair it has seen with the array it returned then. Returns
    the problem and the cache, whose entries pair each array with a copy."""
    cache = {}

    def cached(i, name, oracle):
        def answer(point, batch):
            key = (i, name, point.tobytes(), np.asarray(batch).tobytes())
            if key not in cache:
                out = oracle(point, batch)
                cache[key] = (out, out.copy())
            return cache[key][0]

        return answer

    levels = [
        replace(level, value=cached(i, "value", level.value),
                jacobian=cached(i, "jacobian", level.jacobian))
        for i, level in enumerate(problem.levels)
    ]
    return CompositionalProblem(levels, problem.x_shape, problem.metadata), cache


CACHED_RUNS = {
    "pmvr": (pmvr_run, SolverParams(eta=0.1, alpha=0.3, b0=4, b1=3, iters=12)),
    "pmvr_subsolver": (pmvr_run, SolverParams(
        eta=0.1, alpha=0.3, b0=4, b1=3, iters=12,
        subsolver=QuadraticSubsolver(coeff=0.5, inner_iters=4))),
    "baseline": (projected_baseline_run, SolverParams(eta=0.05, alpha=0.5, b0=3, b1=3, iters=12)),
}


@pytest.mark.parametrize("run", sorted(CACHED_RUNS))
def test_solvers_never_write_into_arrays_a_set_or_an_oracle_returns(run):
    """An oracle or a set may hand out an array it keeps: the steps, the
    subsolver and the walk compute into arrays of their own, so the cached
    ones stay as they were and the trace is the one of fresh arrays."""
    entry, params = CACHED_RUNS[run]
    problem, fset, x1 = portfolio_case()
    want_rows, want_x = trace_values(entry(problem, fset, params, x1, RandomSource(5)))
    cached_problem, cache = cached_oracles(problem)
    cached_set = CachedVertexSimplex(fset.d)
    rows, x_final = trace_values(entry(cached_problem, cached_set, params, x1, RandomSource(5)))
    assert rows == want_rows
    assert x_final.tobytes() == want_x.tobytes()
    assert cached_set.vertices.tobytes() == np.eye(fset.d).tobytes()
    changed = [key[:2] for key, (out, copy) in cache.items() if out.tobytes() != copy.tobytes()]
    assert cache and changed == []
