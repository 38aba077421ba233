import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pmvr.benchmarks import (
    PortfolioData,
    mean_variance_problem,
    quadratic_distance_problem,
    two_level_tracking_problem,
)
from pmvr.core import inner
from pmvr.metrics import expected_baseline_sfo, expected_lmo, expected_sfo
from pmvr.problems import (
    CompositionalProblem,
    FiniteSamples,
    GenerativeSamples,
    Level,
)
from pmvr.rng import RandomSource
from pmvr.sets import Box, Simplex
from pmvr.solvers import (
    QuadraticSubsolver,
    ScheduleConstants,
    SolverParams,
    StageSchedule,
    TraceConfig,
    _init_state,
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
        lambda x, s: np.array([c @ x]),
        lambda x, s: c.reshape(-1, 1),
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
            counts["value"] += 1
            return a @ x + noise[t]

        def jacobian(x, t, a=a, noise=noise):
            counts["jacobian"] += 1
            return a.T + noise[t].mean()

        levels.append(
            Level(
                din, dout, value, jacobian,
                lambda x, a=a: a @ x,
                lambda x, a=a: a.T.copy(),
                samples=FiniteSamples(dataset),
            )
        )
    return CompositionalProblem(levels), counts


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


class TestPmvrStep:
    def test_linear_objective_one_step_to_vertex(self):
        c = np.array([0.6, 0.1, 0.9])
        problem = linear_problem(c)
        fset = Simplex(3)
        params = SolverParams(eta=1.0, alpha=1.0, b0=1, b1=1, iters=1)
        state = _init_state(problem, fset, params, np.full(3, 1 / 3), RandomSource(0))
        pmvr_step(state, problem, fset, params, RandomSource(0))
        assert np.array_equal(state.x, np.array([0.0, 1.0, 0.0]))

    def test_zero_step_size_freezes_iterate(self):
        problem, _ = counted_problem(2)
        fset = Simplex(3)
        params = SolverParams(eta=0.0, alpha=0.5, b0=2, b1=1, iters=1)
        rng = RandomSource(3)
        state = _init_state(problem, fset, params, np.full(3, 1 / 3), rng)
        v_before = state.gradient.v.copy()
        pmvr_step(state, problem, fset, params, rng)
        assert np.array_equal(state.x, np.full(3, 1 / 3))
        assert not np.array_equal(state.gradient.v, v_before)

    def test_simplex_sum_stays_exact(self):
        data = PortfolioData(np.array([[0.01, 0.0], [0.0, 0.01]]))
        problem = mean_variance_problem(data, 1.0)
        fset = Simplex(2)
        params = SolverParams(eta=0.3, alpha=0.5, b0=2, b1=2, iters=3)
        rng = RandomSource(11)
        state = _init_state(problem, fset, params, np.array([0.5, 0.5]), rng)
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
            trace=TraceConfig(collect_tau=False, keep_iterates=False),
        )
        want_sfo = expected_sfo(iters, k, b0, b1)
        want_lmo = expected_lmo(iters, n_inner)
        assert res.state.counters.sfo == want_sfo
        assert res.state.counters.lmo == want_lmo
        # one SFO call returns the (value, Jacobian) pair, so the raw oracle
        # invocation counts must both equal the counter
        assert counts["value"] == want_sfo
        assert counts["jacobian"] == want_sfo

    def test_metric_cadence_does_not_change_trajectory(self):
        problem = two_level_tracking_problem()
        fset = Simplex(5)
        params = SolverParams(eta=0.05, alpha=0.3, b0=4, b1=2, iters=20)
        a = pmvr_run(problem, fset, params, np.full(5, 0.2), RandomSource(2),
                     trace=TraceConfig(metric_every=1))
        b = pmvr_run(problem, fset, params, np.full(5, 0.2), RandomSource(2),
                     trace=TraceConfig(metric_every=7))
        assert np.array_equal(a.x_final, b.x_final)


class TestStagewise:
    def test_single_stage_equals_plain_run(self):
        problem = two_level_tracking_problem()
        fset = Simplex(5)
        params = SolverParams(eta=0.05, alpha=0.3, b0=4, b1=2, iters=15)
        schedule = StageSchedule(stages=[params], targets=[0.5])
        cfg = TraceConfig(collect_tau=False)
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
        schedule = StageSchedule(stages=[p1, p2], targets=[0.5, 0.25])
        res = stagewise_run(problem, fset, schedule, np.full(5, 0.2), RandomSource(5))
        x_end1, u_end1, v_end1, t_end1 = res.stage_ends[0]
        assert t_end1 == 10
        # replay stage 1 alone: its end state must match the handoff bitwise
        solo = stagewise_run(
            problem, fset, StageSchedule(stages=[p1], targets=[0.5]),
            np.full(5, 0.2), RandomSource(5),
        )
        assert np.array_equal(solo.x_final, x_end1)
        for ua, ub in zip(solo.stage_ends[0][1], u_end1):
            assert np.array_equal(ua, ub)
        assert np.array_equal(solo.stage_ends[0][2], v_end1)

    def test_two_stages_concatenate_into_one_run(self):
        problem = two_level_tracking_problem()
        fset = Simplex(5)
        params = SolverParams(eta=0.05, alpha=0.3, b0=4, b1=2, iters=9)
        both = StageSchedule(stages=[params, params], targets=[0.5, 0.25])
        cfg = TraceConfig(collect_tau=False)
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
        schedule = StageSchedule(stages=[p, p], targets=[0.5, 0.25])
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

    def test_eps_range(self):
        with pytest.raises(ValueError):
            schedule_for("fw_gap", "constant", 0.0)
        with pytest.raises(ValueError):
            schedule_for("fw_gap", "constant", 1.5)


class TestBaseline:
    def quadratic_box_problem(self):
        c = np.array([0.5, -0.25])

        def draw(gen, n):
            return [0.0] * n

        level = Level(
            2, 1,
            lambda x, s: np.array([(x - c) @ (x - c)]),
            lambda x, s: (2 * (x - c)).reshape(-1, 1),
            lambda x: np.array([(x - c) @ (x - c)]),
            lambda x: (2 * (x - c)).reshape(-1, 1),
            samples=GenerativeSamples(draw),
        )
        return CompositionalProblem([level]), Box([-1.0, -1.0], [1.0, 1.0])

    def test_monotone_decrease_on_noiseless_quadratic(self):
        problem, box = self.quadratic_box_problem()
        res = projected_baseline_run(
            problem, box, 0.1, 1.0, 1, 30, np.array([0.9, 0.9]), RandomSource(8),
            trace=TraceConfig(metric_every=1),
        )
        objs = [row.objective for row in res.trace]
        assert all(b <= a + 1e-12 for a, b in zip(objs, objs[1:]))

    def test_feasible_and_deterministic(self):
        problem = two_level_tracking_problem()
        fset = Simplex(5)
        a = projected_baseline_run(
            problem, fset, 0.05, 0.5, 2, 20, np.full(5, 0.2), RandomSource(9)
        )
        b = projected_baseline_run(
            problem, fset, 0.05, 0.5, 2, 20, np.full(5, 0.2), RandomSource(9)
        )
        for xa, xb in zip(a.iterates, b.iterates):
            assert np.array_equal(xa, xb)
            assert fset.contains(xa, 1e-9)
        assert a.state.counters.lmo == 0
        assert a.state.counters.sfo == 20 * 2 * 2


def test_oversized_batch_warns_once_per_run():
    data = PortfolioData(np.array([[0.01, 0.0], [0.0, 0.01]]))
    problem = mean_variance_problem(data, 1.0)
    fset = Simplex(2)
    params = SolverParams(eta=0.1, alpha=0.5, b0=1, b1=5, iters=3)  # b1 > 2 records
    rng = RandomSource(17)
    state = _init_state(problem, fset, params, np.array([0.5, 0.5]), rng)
    with pytest.warns(UserWarning, match="replacement"):
        pmvr_step(state, problem, fset, params, rng)
    import warnings as _warnings

    with _warnings.catch_warnings():
        _warnings.simplefilter("error")
        pmvr_step(state, problem, fset, params, rng)  # warned once already


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
                    collect_tau=False, keep_iterates=False,
                    track_gradient_error=True, metric_every=400,
                ),
            )
            acc += float(res.gradient_errors[100:].mean())
        errors[alpha] = acc / 10
    assert errors[0.1] < errors[1.0]


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
    cfg = TraceConfig(collect_tau=False, keep_iterates=False)
    sub = None if n_inner is None else QuadraticSubsolver(1.0, n_inner)
    lmo_per_step = 1 if n_inner is None else n_inner

    p = SolverParams(eta=0.1, alpha=0.4, b0=b0, b1=b1s[0], iters=iters[0], subsolver=sub)
    res = pmvr_run(problem, fset, p, x1, RandomSource(1), trace=cfg)
    assert res.state.counters.sfo == expected_sfo(p.iters, k, b0, p.b1)
    assert res.state.counters.lmo == expected_lmo(p.iters, n_inner)

    res = projected_baseline_run(problem, fset, 0.1, 0.4, b1s[0], iters[0], x1,
                                 RandomSource(2), trace=cfg)
    assert res.state.counters.sfo == expected_baseline_sfo(iters[0], k, b1s[0])
    assert res.state.counters.lmo == 0

    ts = sorted(iters[: len(b1s)])
    stages = [SolverParams(eta=0.1, alpha=0.4, b0=b0, b1=b, iters=t, subsolver=sub)
              for b, t in zip(b1s, ts)]
    schedule = StageSchedule(stages=stages, targets=[0.5 ** s for s in range(1, len(stages) + 1)])
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
