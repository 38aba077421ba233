"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
report lines alongside the pytest verdicts.
"""

import os
import time

import numpy as np
import pytest

from pmvr.benchmarks import (
    SingleIndexConfig,
    mean_deviation_problem,
    mean_variance_problem,
    quadratic_distance_problem,
    single_index_problem,
    synthetic_portfolio_data,
    two_level_tracking_problem,
)
from pmvr.checks import finite_difference_gradient, relative_error
from pmvr.core import inner
from pmvr.data_io import load_french_csv, read_trace_csv, write_trace_csv, TraceRow
from pmvr.estimators import init_trackers, storm_update
from pmvr.metrics import expected_lmo, expected_sfo, gradient_mapping
from pmvr.problems import (
    CompositionalProblem,
    FiniteSamples,
    Level,
    exact_gradient,
    exact_inner_values,
)
from pmvr.rng import RandomSource
from pmvr.sets import Box, NuclearNormBall, Simplex
from pmvr.solvers import (
    QuadraticSubsolver,
    ScheduleConstants,
    SolverParams,
    TraceConfig,
    pmvr_run,
    quadratic_fw_subsolve,
    schedule_for,
    stagewise_run,
)

DATA = os.path.join(os.path.dirname(__file__), "data")


def report(cid, passed, detail):
    print(f"\n[{cid}] {'PASS' if passed else 'FAIL'} - {detail}")
    assert passed, f"{cid}: {detail}"


def test_c1_oracle_geometry():
    t0 = time.perf_counter()
    gen = np.random.default_rng(0)
    worst_vertex = 0.0
    for d in range(1, 101):
        fset = Simplex(d)
        for _ in range(3):
            direction = gen.standard_normal(d)
            z = fset.lmo(direction)
            worst_vertex = max(worst_vertex, inner(z, direction) - direction.min())

    fset2 = Simplex(2)
    hand_err = max(
        np.abs(fset2.project(np.array([0.2, 0.4])) - np.array([0.4, 0.6])).max(),
        np.abs(fset2.project(np.array([5.0, 1.0])) - np.array([1.0, 0.0])).max(),
    )
    idem = nonexp = 0.0
    fset6 = Simplex(6)
    for _ in range(50):
        a, b = gen.normal(0, 2, size=6), gen.normal(0, 2, size=6)
        pa, pb = fset6.project(a), fset6.project(b)
        idem = max(idem, np.abs(fset6.project(pa) - pa).max())
        nonexp = max(nonexp, np.linalg.norm(pa - pb) - np.linalg.norm(a - b))

    ball = NuclearNormBall(20, 15, 1.0)
    sigma_rel = 0.0
    lmo_viol = -np.inf
    feasible_checked = 0
    for _ in range(50):
        direction = gen.standard_normal((20, 15))
        z = ball.lmo(direction)
        ref = np.linalg.svd(direction, compute_uv=False)[0]
        sigma_rel = max(sigma_rel, abs(-inner(z, direction) - ref) / ref)
        for _ in range(2):
            u, _, vt = np.linalg.svd(gen.standard_normal((20, 15)), full_matrices=False)
            w = gen.random(15)
            w /= w.sum()
            x = (u * w) @ vt
            lmo_viol = max(lmo_viol, inner(z, direction) - inner(x, direction))
            feasible_checked += 1
    elapsed = time.perf_counter() - t0
    ok = (
        worst_vertex <= 0.0
        and hand_err <= 1e-12
        and idem <= 1e-12
        and nonexp <= 1e-12
        and sigma_rel <= 1e-6
        and lmo_viol <= 1e-6
        and feasible_checked == 100
        and elapsed < 10.0
    )
    report(
        "C1",
        ok,
        f"simplex lmo viol {worst_vertex:.1e}, hand proj err {hand_err:.1e}, "
        f"idem {idem:.1e}, nonexp {nonexp:.1e}, nuclear sigma rel {sigma_rel:.1e}, "
        f"nuclear lmo viol {lmo_viol:.1e} over {feasible_checked} points, "
        f"{elapsed:.1f}s",
    )


def test_c2_gradient_correctness():
    t0 = time.perf_counter()
    gen = np.random.default_rng(1)
    data = synthetic_portfolio_data(d=10, periods=200, data_seed=2)
    simplex = Simplex(10)
    single, ball = single_index_problem(SingleIndexConfig(m=8, n=8, sigma=0.1, data_seed=3))
    cases = [
        (mean_variance_problem(data, 1.0), simplex),
        (mean_deviation_problem(data, 1.0), simplex),
        (single, ball),
    ]
    worst = {}
    for problem, fset in cases:
        err = 0.0
        for _ in range(5):
            x = fset.project(np.asarray(gen.normal(0.2, 0.5, size=fset.shape)))
            fd = finite_difference_gradient(
                lambda p: exact_inner_values(problem, p)[-1][0], x, h=1e-6
            )
            err = max(err, relative_error(exact_gradient(problem, x), fd))
        worst[problem.name] = err
    elapsed = time.perf_counter() - t0
    ok = all(v <= 1e-5 for v in worst.values()) and elapsed < 10.0
    detail = ", ".join(f"{k} rel err {v:.2e}" for k, v in worst.items())
    report("C2", ok, f"{detail}, {elapsed:.1f}s (tol 1e-5)")


def test_c3_estimator_exactness_and_cancellation():
    # zero-noise + alpha=1: trackers equal exact chain quantities for 100 steps
    a = np.array([[0.6, -0.3], [0.2, 0.9]])
    levels = [
        Level(
            2, 2,
            lambda x, s: np.broadcast_to(a @ x, (len(s), 2)),
            lambda x, s: np.broadcast_to(a.T, (len(s), 2, 2)),
            lambda x: a @ x, lambda x: a.T.copy(),
            samples=FiniteSamples(3),
        ),
        Level(
            2, 1,
            lambda y, s: np.full((len(s), 1), 0.5 * (y @ y)),
            lambda y, s: np.broadcast_to(y.reshape(-1, 1), (len(s), 2, 1)),
            lambda y: np.array([0.5 * (y @ y)]), lambda y: y.reshape(-1, 1),
            samples=FiniteSamples(3),
        ),
    ]
    problem = CompositionalProblem(levels)
    x = np.array([0.4, 0.6])
    u, v = init_trackers(problem, x, 2, RandomSource(0))
    worst_u = worst_v = 0.0
    for step in range(100):
        x = x + 0.003 * np.array([1.0, -0.5])
        u, v = storm_update(u, v, 1.0, problem, x, None, [[0], [0]])
        values = exact_inner_values(problem, x)
        worst_u = max(
            worst_u,
            max(np.abs(a - y).max() for a, y in zip(u, values)),
        )
        worst_v = max(worst_v, np.abs(v - exact_gradient(problem, x)).max())

    # identical chains + alpha=0: bit-level stationarity
    noisy = two_level_tracking_problem(data_seed=1)
    xf = np.full(5, 0.2)
    u2, v2 = init_trackers(noisy, xf, 4, RandomSource(1))
    u_before = [a.copy() for a in u2]
    v_before = v2.copy()
    gen = RandomSource(2).split(7).generator
    batches = [noisy.levels[i].samples.draw(gen, 3) for i in range(2)]
    u2, v2 = storm_update(u2, v2, 0.0, noisy, xf, xf.copy(), batches)
    bit_stationary = all(
        np.array_equal(a, ub) for a, ub in zip(u2, u_before)
    ) and np.array_equal(v2, v_before)

    ok = worst_u <= 1e-12 and worst_v <= 1e-12 and bit_stationary
    report(
        "C3",
        ok,
        f"deterministic-mode max tracker err {worst_u:.2e}, gradient err "
        f"{worst_v:.2e} over 100 iters (tol 1e-12); bit-stationary={bit_stationary}",
    )


def test_c4_variance_reduction_trend():
    t0 = time.perf_counter()
    fset = Simplex(5)
    x1 = np.full(5, 0.2)
    means = {}
    for alpha in (0.1, 1.0):
        acc = 0.0
        for seed in range(20):
            problem = two_level_tracking_problem(data_seed=0)
            params = SolverParams(eta=0.01, alpha=alpha, b0=8, b1=1, iters=1000)
            res = pmvr_run(
                problem, fset, params, x1, RandomSource(300 + seed),
                trace=TraceConfig(
                    keep_iterates=False,
                    track_gradient_error=True, metric_every=1000,
                ),
            )
            acc += float(res.gradient_errors[99:1000].mean())
        means[alpha] = acc / 20
    elapsed = time.perf_counter() - t0
    ok = means[0.1] < means[1.0] and elapsed < 30.0
    report(
        "C4",
        ok,
        f"time-avg ||v - grad||^2: alpha=0.1 -> {means[0.1]:.4f} < "
        f"alpha=1.0 -> {means[1.0]:.4f} (20 seeds), {elapsed:.1f}s",
    )


def test_c5_subsolver_certificate():
    t0 = time.perf_counter()
    gen = np.random.default_rng(4)
    fset = Simplex(8)
    coeff = 1.0
    worst = -np.inf
    for n in (10, 100):
        bound = 2.0 * coeff * fset.diameter**2 / (n + 2)
        for _ in range(50):
            v = gen.normal(0, 1, size=8)
            x_t = fset.project(gen.normal(0, 1, size=8))
            w = quadratic_fw_subsolve(v, x_t, coeff, n, fset)
            w_star = fset.project(x_t - v / coeff)

            def g(p):
                return inner(v, p - x_t) + 0.5 * coeff * inner(p - x_t, p - x_t)

            worst = max(worst, g(w) - g(w_star) - bound)
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-9 and elapsed < 5.0
    report("C5", ok, f"max certificate excess {worst:.2e} (tol 1e-9), {elapsed:.1f}s")


def test_c6_feasibility_invariant():
    violations = 0
    checked = 0

    # simplex runs: pmvr, pmvr-v2, stagewise, baseline
    data = synthetic_portfolio_data(d=6, periods=100, data_seed=5)
    problem = mean_variance_problem(data, 1.0)
    fset = Simplex(6)
    x1 = np.full(6, 1 / 6)
    cfg = TraceConfig(metric_every=50)
    runs = [
        pmvr_run(problem, fset, SolverParams(0.05, 0.2, 4, 2, 90), x1, RandomSource(11), trace=cfg),
        pmvr_run(
            problem, fset,
            SolverParams(0.05, 0.2, 4, 2, 90, subsolver=QuadraticSubsolver(1.0, 8)),
            x1, RandomSource(12), trace=cfg,
        ),
    ]
    toy = quadratic_distance_problem(np.array([2.0, -1.0]), Simplex(2), noise=0.05)
    sched = schedule_for("strongly_convex_gap", "constant", 0.25, strong_convexity=2.0)
    runs.append(
        stagewise_run(toy, Simplex(2), sched, np.array([0.5, 0.5]), RandomSource(13), trace=cfg)
    )
    for res in runs:
        for x in res.iterates:
            checked += 1
            if abs(x.sum() - 1.0) > 1e-12 or x.min() < -1e-12:
                violations += 1

    # nuclear-ball run
    single, ball = single_index_problem(SingleIndexConfig(m=6, n=6, sigma=0.1, data_seed=6))
    res = pmvr_run(
        single, ball,
        SolverParams(0.05, 0.2, 4, 1, 60, subsolver=QuadraticSubsolver(1.0, 5)),
        single.x_start, RandomSource(14), trace=cfg,
    )
    for x in res.iterates:
        checked += 1
        if np.linalg.svd(x, compute_uv=False).sum() > ball.radius + 1e-6:
            violations += 1

    ok = violations == 0 and checked > 200
    report("C6", ok, f"{violations} violations across {checked} iterates")


@pytest.mark.filterwarnings("ignore:batch size B0 = .* exceeds dataset size:UserWarning")
def test_c7_counter_exactness():
    gen = np.random.default_rng(7)
    mismatches = []
    for trial in range(10):
        k = int(gen.integers(1, 4))
        b0 = int(gen.integers(1, 9))
        b1 = int(gen.integers(1, 5))
        iters = int(gen.integers(1, 25))
        n_inner = None if trial % 2 == 0 else int(gen.integers(1, 12))
        dims = [int(gen.integers(2, 5)) for _ in range(k)] + [1]
        levels = []
        for i in range(k):
            a = gen.normal(0, 0.5, size=(dims[i + 1], dims[i]))
            levels.append(
                Level(
                    dims[i], dims[i + 1],
                    lambda x, t, a=a: a @ x + 0.01 * t[:, None],
                    lambda x, t, a=a: a.T + 0.01 * t[:, None, None],
                    lambda x, a=a: a @ x,
                    lambda x, a=a: a.T.copy(),
                    samples=FiniteSamples(5),
                )
            )
        problem = CompositionalProblem(levels)
        fset = Simplex(dims[0])
        sub = None if n_inner is None else QuadraticSubsolver(1.0, n_inner)
        params = SolverParams(0.1, 0.5, b0, b1, iters, subsolver=sub)
        res = pmvr_run(
            problem, fset, params, np.full(dims[0], 1.0 / dims[0]),
            RandomSource(40 + trial),
            trace=TraceConfig(keep_iterates=False, metric_every=max(1, iters)),
        )
        want = (expected_sfo(iters, k, b0, b1), expected_lmo(iters, n_inner))
        got = (res.state.counters.sfo, res.state.counters.lmo)
        if got != want:
            mismatches.append((trial, got, want))
    report("C7", not mismatches, f"10 random configs, mismatches: {mismatches or 'none'}")


def test_c8_theorem1_schedule_convergence():
    t0 = time.perf_counter()
    data = synthetic_portfolio_data(d=10, periods=500, data_seed=8)
    problem = mean_variance_problem(data, 1.0)
    fset = Simplex(10)
    params = schedule_for("fw_gap", "constant", 0.1)
    assert params.iters == 1000 and params.eta == pytest.approx(0.01)
    x1 = np.full(10, 0.1)
    at10 = []
    final = []
    for seed in range(10):
        res = pmvr_run(
            problem, fset, params, x1, RandomSource(500 + seed),
            trace=TraceConfig(keep_iterates=False, metric_every=5),
        )
        gap = {row.iteration: row.fw_gap for row in res.trace}
        at10.append(gap[10])
        final.append(gap[1000])
    mean10, mean_final = float(np.mean(at10)), float(np.mean(final))
    elapsed = time.perf_counter() - t0
    ok = mean_final <= mean10 / 10.0 and elapsed < 60.0
    report(
        "C8",
        ok,
        f"mean FW gap iter10 {mean10:.3e} -> final {mean_final:.3e} "
        f"(need <= {mean10 / 10:.3e}), {elapsed:.1f}s",
    )


def test_c9_theorem7_stagewise_halving():
    t0 = time.perf_counter()
    fset = Simplex(2)
    eps1 = 1.0
    schedule = schedule_for(
        "strongly_convex_gap", "constant", eps1 / 2**6, strong_convexity=2.0,
        constants=ScheduleConstants(eps1=eps1),
    )
    assert len(schedule.stages) == 6
    worst = np.zeros(6)
    for seed in range(10):
        problem = quadratic_distance_problem(np.array([2.0, -1.0]), fset, noise=0.05)
        res = stagewise_run(
            problem, fset, schedule, np.array([0.5, 0.5]), RandomSource(700 + seed),
            trace=TraceConfig(keep_iterates=False),
        )
        f_star = problem.metadata.f_star
        for s, (x_end, _, _, _) in enumerate(res.stage_ends):
            gap = float((x_end - np.array([2.0, -1.0])) @ (x_end - np.array([2.0, -1.0]))) - f_star
            worst[s] = max(worst[s], gap)
    bounds = np.array([eps1 / 2 ** (s - 1) for s in range(1, 7)])
    elapsed = time.perf_counter() - t0
    ok = bool(np.all(worst <= bounds)) and elapsed < 60.0
    report(
        "C9",
        ok,
        "worst stage gaps "
        + " ".join(f"{w:.2e}<={b:.0e}" for w, b in zip(worst, bounds))
        + f" (10 seeds), {elapsed:.1f}s",
    )


def test_c10_gradient_mapping_reduction():
    gen = np.random.default_rng(10)
    problem = two_level_tracking_problem(data_seed=9)
    box = Box(np.full(5, -1e3), np.full(5, 1e3))
    worst = 0.0
    for _ in range(20):
        x = gen.normal(0, 1, size=5)
        gm = gradient_mapping(problem, box, x, beta=1.0)
        g = exact_gradient(problem, x)
        worst = max(worst, abs(gm - float(g @ g)))
    ok = worst <= 1e-10
    report("C10", ok, f"max |GM - ||grad||^2| = {worst:.2e} at 20 interior points (tol 1e-10)")


def test_c11_matrix_experiment_regression():
    t0 = time.perf_counter()
    eps = 2000.0 ** (-2.0 / 3.0)
    params = schedule_for(
        "grad_map", "constant", eps,
        constants=ScheduleConstants(eta=0.126, alpha=8.0, b1=8.0, b0=16.0, n=10.0 * eps),
    )
    assert params.iters == 2000 and params.subsolver.inner_iters == 10
    problem, ball = single_index_problem(
        SingleIndexConfig(m=20, n=20, s=1.0, sigma=0.1, data_seed=0)
    )
    curves = []
    for seed in range(10):
        res = pmvr_run(
            problem, ball, params, problem.x_start, RandomSource(seed),
            trace=TraceConfig(keep_iterates=False, metric_every=100),
        )
        curves.append({row.iteration: row.grad_map for row in res.trace})
    checkpoints = [100, 200, 400, 900, 2000]  # log-spaced, snapped to the cadence
    means = [float(np.mean([c[p] for c in curves])) for p in checkpoints]
    increases = sum(1 for a, b in zip(means, means[1:]) if b > a)
    elapsed = time.perf_counter() - t0
    ok = increases <= 1 and elapsed < 120.0
    report(
        "C11",
        ok,
        "mean grad-map at "
        + " ".join(f"{p}:{m:.4f}" for p, m in zip(checkpoints, means))
        + f"; {increases} increase(s) allowed<=1, {elapsed:.0f}s",
    )


def test_c12_data_pipeline(tmp_path):
    fixture = os.path.join(DATA, "industry10_fixture.txt")
    data = load_french_csv(fixture)
    with open(fixture) as fh:
        total = len(fh.read().splitlines())
    accounting = data.report.total == total and data.report.parsed == 5

    rows = [
        TraceRow(i, 0, 0.5 * i, 10 * i, i, -1.0 / (i + 1), 1e-3 / (i + 1), 1e-4, 1.0,
                 None if i % 2 else 0.25 * i)
        for i in range(50)
    ]
    trace_path = tmp_path / "roundtrip.csv"
    write_trace_csv(rows, str(trace_path))
    roundtrip = read_trace_csv(str(trace_path)) == rows

    # identical (config, seed) -> identical bytes except the seconds column
    from pmvr.cli import run_config
    from pmvr.data_io import validate_config

    base = {
        "problem": {"name": "mean_variance",
                    "source": {"kind": "synthetic", "d": 4, "periods": 30}},
        "algorithm": "pmvr",
        "schedule": {"theorem": "thm1", "eps": 0.1, "overrides": {"t": 25}},
        "seed": 3,
        "name": "pipeline",
    }
    texts = []
    for sub in ("x", "y"):
        cfg = validate_config(dict(base, out=str(tmp_path / sub)))
        paths, _, _ = run_config(cfg)
        lines = open(paths[0]).read().splitlines()
        redacted = [lines[0]]
        for ln in lines[1:]:
            parts = ln.split(",")
            parts[2] = "-"
            redacted.append(",".join(parts))
        texts.append(redacted)
    rerun_identical = texts[0] == texts[1]

    ok = accounting and roundtrip and rerun_identical
    report(
        "C12",
        ok,
        f"accounting={accounting}, roundtrip={roundtrip}, "
        f"rerun byte-identical={rerun_identical}",
    )
