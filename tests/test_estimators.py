import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pmvr.benchmarks import (
    SingleIndexConfig,
    mean_deviation_problem,
    single_index_problem,
    synthetic_portfolio_data,
    two_level_tracking_problem,
)
from pmvr.core import ShapeMismatchError
from pmvr.estimators import (
    _SLICE_ENTRIES,
    GradientTracker,
    ValueTrackers,
    _level_batches,
    _Stream,
    _walk,
    init_trackers,
    storm_update,
)
from pmvr.metrics import OracleCounters
from pmvr.problems import (
    CompositionalProblem,
    FiniteSamples,
    GenerativeSamples,
    Level,
    exact_gradient,
    exact_inner_values,
)
from pmvr.rng import RandomSource


def additive_noise_scalar_level():
    """f(u; xi) = u + xi on scalars; exact value is u itself."""
    return Level(
        1, 1,
        lambda u, s: (u[0] + s)[:, None],
        lambda u, s: (1.0 + s)[:, None, None],
        lambda u: np.array([u[0]]),
        lambda u: np.array([[1.0]]),
        samples=GenerativeSamples(lambda gen, n: gen.normal(0, 1, size=n)),
    )


def deterministic_two_level():
    """Zero-noise chain: f1(x) = (x1+x2, x1-x2), f2(y) = y1*y2."""
    a = np.array([[1.0, 1.0], [1.0, -1.0]])
    l1 = Level(
        2, 2,
        lambda x, s: np.broadcast_to(a @ x, (len(s), 2)),
        lambda x, s: np.broadcast_to(a.T, (len(s), 2, 2)),
        lambda x: a @ x,
        lambda x: a.T.copy(),
        samples=FiniteSamples(4),
    )
    l2 = Level(
        2, 1,
        lambda y, s: np.full((len(s), 1), y[0] * y[1]),
        lambda y, s: np.broadcast_to([[y[1]], [y[0]]], (len(s), 2, 1)),
        lambda y: np.array([y[0] * y[1]]),
        lambda y: np.array([[y[1]], [y[0]]]),
        samples=FiniteSamples(4),
    )
    return CompositionalProblem([l1, l2])


def finite_noisy_problem(size=6):
    """Finite-dataset two-level chain with per-record perturbations."""
    gen = np.random.default_rng(0)
    deltas1 = gen.normal(0, 0.3, size=(size, 2))
    deltas2 = gen.normal(0, 0.3, size=size)
    a = np.array([[0.8, -0.2], [0.1, 0.5]])

    l1 = Level(
        2, 2,
        lambda x, t: a @ x + deltas1[t] - deltas1.mean(axis=0),
        lambda x, t: a.T + (deltas2[t] - deltas2.mean())[:, None, None],
        lambda x: a @ x,
        lambda x: a.T.copy(),
        samples=FiniteSamples(size),
    )
    l2 = Level(
        2, 1,
        lambda y, t: (0.5 * (y @ y) + deltas2[t] - deltas2.mean())[:, None],
        lambda y, t: (y + deltas1[t] - deltas1.mean(axis=0))[:, :, None],
        lambda y: np.array([0.5 * (y @ y)]),
        lambda y: y.reshape(-1, 1),
        samples=FiniteSamples(size),
    )
    return CompositionalProblem([l1, l2])


def idle_gradient(problem):
    """A gradient tracker for tests that only read the value trackers."""
    return GradientTracker(v=np.zeros(problem.x_shape), alpha=0.5)


class TestInit:
    def test_zero_noise_matches_exact_chain(self):
        problem = deterministic_two_level()
        x = np.array([0.3, 0.9])
        counters = OracleCounters()
        trackers, grad = init_trackers(
            problem, x, 4, RandomSource(1), alpha=0.5, counters=counters
        )
        values = exact_inner_values(problem, x)
        for u, y in zip(trackers.u, values):
            assert np.allclose(u, y, atol=1e-15)
        assert np.allclose(grad.v, exact_gradient(problem, x), atol=1e-15)
        assert counters.sfo == 2 * 4

    def test_full_sweep_gives_exact_values(self):
        problem = finite_noisy_problem()
        x = np.array([0.4, 0.6])
        records = np.arange(6)
        values = exact_inner_values(problem, x)
        point = x
        for level, y in zip(problem.levels, values):
            u = level.value(point, records).mean(axis=0)
            assert np.abs(u - y).max() <= 1e-12
            point = u

    def test_singleton_batch(self):
        problem = finite_noisy_problem()
        x = np.array([0.5, 0.5])
        trackers, _ = init_trackers(problem, x, 1, RandomSource(3), alpha=1.0)
        assert len(trackers.u) == 2

    def test_rejects_empty_batch(self):
        problem = deterministic_two_level()
        with pytest.raises(ValueError):
            init_trackers(problem, np.zeros(2), 0, RandomSource(0), alpha=1.0)

    def test_rejects_an_oracle_that_ignores_the_batch_axis(self):
        problem = deterministic_two_level()
        problem.levels[1] = replace(
            problem.levels[1], value=lambda y, s: np.array([y[0] * y[1]])
        )
        with pytest.raises(ShapeMismatchError, match=r"value oracle returned shape \(1,\)"):
            init_trackers(problem, np.zeros(2), 3, RandomSource(0), alpha=1.0)


class TestValueUpdate:
    def test_momentum_off_is_batch_mean(self):
        level = additive_noise_scalar_level()
        problem = CompositionalProblem([level])
        trackers = ValueTrackers(u=[np.array([9.0])], alpha=1.0)
        storm_update(
            trackers, idle_gradient(problem), problem, np.array([2.0]), [np.array([1.0])],
            [[0.25, -0.25]],
        )
        got = trackers.u[0]
        assert got[0] == pytest.approx(2.0, abs=1e-12)

    def test_hand_substitution(self):
        # 0.5*2 + f(1.5; 0) - 0.5*f(1.0; 0) = 2.0
        level = additive_noise_scalar_level()
        problem = CompositionalProblem([level])
        trackers = ValueTrackers(u=[np.array([2.0])], alpha=0.5)
        storm_update(
            trackers, idle_gradient(problem), problem, np.array([1.5]), [np.array([1.0])],
            [[0.0]],
        )
        got = trackers.u[0]
        assert got[0] == pytest.approx(2.0, abs=1e-15)

    def test_telescoping_is_bit_stationary(self):
        level = additive_noise_scalar_level()
        problem = CompositionalProblem([level])
        before = np.array([0.123456789e-3])
        trackers = ValueTrackers(u=[before.copy()], alpha=0.0)
        point = np.array([1.7])
        storm_update(trackers, idle_gradient(problem), problem, point, [point], [[0.4, -1.2]])
        got = trackers.u[0]
        assert got[0] == before[0]  # exact bit-level equality

    def test_rejects_empty_batch(self):
        level = additive_noise_scalar_level()
        problem = CompositionalProblem([level])
        trackers = ValueTrackers(u=[np.zeros(1)], alpha=0.5)
        with pytest.raises(ValueError):
            storm_update(
                trackers, idle_gradient(problem), problem, np.zeros(1), [np.zeros(1)], [[]]
            )


class TestGradientUpdate:
    def test_momentum_off_noiseless_is_exact_chain(self):
        problem = deterministic_two_level()
        x = np.array([0.2, 0.5])
        chain = [x, problem.levels[0].exact_value(x)]
        tracker = GradientTracker(v=np.zeros(2), alpha=1.0)
        trackers = ValueTrackers(u=[np.zeros(2), np.zeros(1)], alpha=1.0)
        storm_update(trackers, tracker, problem, x, chain, [[0], [0]])
        got = tracker.v
        assert np.allclose(got, exact_gradient(problem, x), atol=1e-12)

    def test_identical_chains_alpha_zero_stationary(self):
        problem = finite_noisy_problem()
        x = np.array([0.4, 0.6])
        chain = [x, problem.levels[0].exact_value(x)]
        v0 = np.array([0.31, -0.17])
        tracker = GradientTracker(v=v0.copy(), alpha=0.0)
        # the level-1 tracker holds the old chain's input, so both chains agree
        trackers = ValueTrackers(u=[chain[1].copy(), np.zeros(1)], alpha=0.0)
        storm_update(trackers, tracker, problem, x, list(chain), [[2, 4], [1, 3]])
        got = tracker.v
        assert np.array_equal(got, v0)

    def test_wrong_chain_length(self):
        problem = deterministic_two_level()
        tracker = GradientTracker(v=np.zeros(2), alpha=0.5)
        trackers = ValueTrackers(u=[np.zeros(2), np.zeros(1)], alpha=0.5)
        with pytest.raises(ValueError):
            storm_update(trackers, tracker, problem, np.zeros(2), [np.zeros(2)], [[0], [0]])


def test_deterministic_mode_tracks_exact_quantities():
    # zero-noise oracles with alpha = 1 reproduce the exact chain each step
    problem = deterministic_two_level()
    x = np.array([0.3, 0.7])
    trackers, grad = init_trackers(problem, x, 2, RandomSource(5), alpha=1.0)
    for step in range(10):
        x = x + 0.01 * np.array([1.0, -1.0])
        storm_update(trackers, grad, problem, x, None, [[0], [0]])
        values = exact_inner_values(problem, x)
        for u, y in zip(trackers.u, values):
            assert np.abs(u - y).max() <= 1e-12
        assert np.abs(grad.v - exact_gradient(problem, x)).max() <= 1e-12


# --- batch means against single-sample batches ------------------------------

PROBLEMS = {
    "mean_deviation": lambda: mean_deviation_problem(
        synthetic_portfolio_data(d=5, periods=60, data_seed=1), 1.0
    ),
    "two_level_tracking": lambda: two_level_tracking_problem(data_seed=2),
}


def batch_case(name, seed, b):
    """A problem, a random point's exact chain u^0..u^{K-1}, and per-level
    batches of size b from the solver's substreams."""
    problem = PROBLEMS[name]()
    gen = np.random.default_rng(seed)
    x = gen.dirichlet(np.ones(problem.levels[0].in_dim))
    chain = [x] + exact_inner_values(problem, x)[:-1]
    return problem, chain, _level_batches(problem, RandomSource(seed), 1, b)


def sample(batch, j):
    return tuple(a[j:j + 1] for a in batch) if isinstance(batch, tuple) else batch[j:j + 1]


def walk_means(problem, chain, batches):
    """Every level's value mean and the gradient mean of one walk that
    keeps the given chain inputs u^0..u^{K-1}."""
    means = []

    def fixed(i, mean, _):
        means.append(mean)
        return chain[i + 1] if i + 1 < len(chain) else None

    _, grad, _ = _walk(problem, chain[0], None, batches, fixed)
    return means + [grad]


def per_sample_means(problem, chain, batches):
    """The loop reference: the averages of B walks on single-sample batches."""
    b = len(batches[0][0]) if isinstance(batches[0], tuple) else len(batches[0])
    parts = [walk_means(problem, chain, [sample(bt, j) for bt in batches]) for j in range(b)]
    return [np.sum(means, axis=0) / b for means in zip(*parts)]


def assert_rel_close(got, want, rel=1e-12):
    assert got.shape == want.shape
    assert np.abs(got - want).max() <= rel * np.abs(want).max()


@settings(max_examples=60, deadline=None)
@given(
    name=st.sampled_from(sorted(PROBLEMS)),
    seed=st.integers(0, 2**32 - 1),
    b=st.integers(1, 40),
)
def test_batch_means_equal_the_average_of_single_sample_batches(name, seed, b):
    problem, chain, batches = batch_case(name, seed, b)
    got = walk_means(problem, chain, batches)
    want = per_sample_means(problem, chain, batches)
    assert len(got) == problem.k + 1
    for g, w in zip(got, want):
        assert_rel_close(g, w)


def test_sliced_reduction_of_large_jacobians():
    problem, _ = single_index_problem(SingleIndexConfig(m=200, n=200, sigma=0.1))
    level = problem.levels[0]
    b = 3
    assert _SLICE_ENTRIES // level.in_dim < b  # more than one slice
    batch = level.samples.draw(RandomSource(5).split(1).generator, b)
    point = problem.x_start.reshape(-1)
    got = walk_means(problem, [problem.x_start], [batch])
    want = per_sample_means(problem, [problem.x_start], [batch])
    for oracle, g, w in zip(("value", "jacobian"), got, want):
        assert_rel_close(g, w)
        whole = getattr(level, oracle)(point, batch).mean(axis=0).reshape(-1)
        assert_rel_close(g, whole)


def test_single_level_walk_keeps_one_slice_alive():
    # K = 1 reduces each slice at once: 40 slices of a 200 x 200 gradient
    # must not be held together, at either point
    problem, _ = single_index_problem(SingleIndexConfig(m=200, n=200, sigma=0.1))
    level = problem.levels[0]
    assert _SLICE_ENTRIES // level.in_dim == 1
    batch = level.samples.draw(RandomSource(5).split(1).generator, 40)
    x = problem.x_start
    slice_bytes = 8 * level.in_dim
    tracemalloc.start()
    try:
        _walk(problem, x, [problem.flatten(x) * 0.5], [batch], lambda i, m, _: m)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 8 * slice_bytes


def test_streamed_initialization_keeps_one_slice_of_samples_alive():
    # 64 samples at 200 x 200 are 20 MB drawn whole; the walk draws them one
    # slice at a time and drops each once reduced
    problem, _ = single_index_problem(SingleIndexConfig(m=200, n=200, sigma=0.1))
    level = problem.levels[0]
    assert _SLICE_ENTRIES // level.in_dim == 1
    slice_bytes = 8 * level.in_dim
    tracemalloc.start()
    try:
        init_trackers(problem, problem.x_start, 64, RandomSource(5), alpha=1.0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 8 * slice_bytes


def mixed_problem():
    """Generative, finite and generative levels. Level 1's Jacobian has
    18000 entries, so the walk takes its batches three samples at a time."""
    gen = np.random.default_rng(4)
    d, p, q, records = 60, 300, 40, 7
    w = gen.normal(size=(p, d))
    m = gen.normal(size=(records, q, p)) / p
    m_mean = m.mean(axis=0)

    def draw_scaled_shift(sample_gen, count):
        scale, shift = np.empty(count), np.empty((count, p))
        for j in range(count):
            scale[j] = sample_gen.normal(1.0, 0.1)
            shift[j] = sample_gen.normal(0.0, 0.1, size=p)
        return scale, shift

    def draw_centre(sample_gen, count):
        centre = np.empty((count, q))
        for j in range(count):
            centre[j] = sample_gen.normal(0.0, 0.1, size=q)
        return centre

    return CompositionalProblem([
        Level(
            d, p,
            lambda x, s: s[0][:, None] * (w @ x) + s[1],
            lambda x, s: s[0][:, None, None] * w.T,
            lambda x: w @ x,
            lambda x: w.T,
            GenerativeSamples(draw_scaled_shift),
        ),
        Level(
            p, q,
            lambda y, r: m[r] @ y,
            lambda y, r: m[r].transpose(0, 2, 1),
            lambda y: m_mean @ y,
            lambda y: m_mean.T,
            FiniteSamples(records),
        ),
        Level(
            q, 1,
            lambda z, c: 0.5 * ((z - c) ** 2).sum(axis=1, keepdims=True),
            lambda z, c: (z - c)[:, :, None],
            lambda z: np.array([0.5 * z @ z + 0.005 * q]),
            lambda z: z[:, None],
            GenerativeSamples(draw_centre),
        ),
    ])


@pytest.mark.parametrize("b", [1, 3, 10])
def test_streamed_draws_equal_a_walk_over_materialized_batches(b):
    problem = mixed_problem()
    assert _SLICE_ENTRIES // max(lv.in_dim * lv.out_dim for lv in problem.levels) == 3
    x = np.random.default_rng(b).normal(size=problem.levels[0].in_dim)
    streamed = _level_batches(problem, RandomSource(9), 1, b, streamed=True)
    assert [type(bt) for bt in streamed] == [_Stream, np.ndarray, _Stream]

    counters = OracleCounters()
    trackers, grad = init_trackers(problem, x, b, RandomSource(8), 0.5, counters)
    u = []

    def keep(i, mean, _):
        u.append(mean)
        return mean

    _, v, _ = _walk(problem, x, None, _level_batches(problem, RandomSource(8), 0, b), keep)
    assert all(np.array_equal(got, want) for got, want in zip(trackers.u, u, strict=True))
    assert np.array_equal(grad.v, v)
    assert counters.sfo == problem.k * b

    old_chain = [x] + trackers.u[:-1]
    x_new = x + 0.01
    runs = []
    for batches in (streamed, _level_batches(problem, RandomSource(9), 1, b)):
        tr = ValueTrackers(u=[a.copy() for a in trackers.u], alpha=0.5)
        g = GradientTracker(v=grad.v.copy(), alpha=0.5)
        chain = storm_update(tr, g, problem, x_new, old_chain, batches)
        runs.append((tr.u, g.v, chain))
    (got_u, got_v, got_chain), (want_u, want_v, want_chain) = runs
    assert all(np.array_equal(a, c) for a, c in zip(got_u, want_u, strict=True))
    assert np.array_equal(got_v, want_v)
    assert all(np.array_equal(a, c) for a, c in zip(got_chain, want_chain, strict=True))


@settings(max_examples=60, deadline=None)
@given(
    name=st.sampled_from(sorted(PROBLEMS)),
    seed=st.integers(0, 2**32 - 1),
    b=st.integers(1, 40),
    alpha=st.floats(0.01, 1.0),
)
def test_identical_chains_at_alpha_zero_leave_trackers_bit_identical(name, seed, b, alpha):
    problem, chain, batches = batch_case(name, seed, b)
    trackers, grad = init_trackers(problem, chain[0], b, RandomSource(seed + 1), alpha)
    trackers.alpha = grad.alpha = 0.0
    u_before = [u.copy() for u in trackers.u]
    v_before = grad.v.copy()
    # the new chain's inputs are the trackers themselves, so the old chain
    # holds equal but distinct arrays and the old and new means are computed
    # apart
    old_chain = [chain[0].copy()] + u_before[:-1]
    storm_update(trackers, grad, problem, chain[0], old_chain, batches)
    assert all(np.array_equal(u, ub) for u, ub in zip(trackers.u, u_before))
    assert np.array_equal(grad.v, v_before)


# --- storm_update against the recursion from direct oracle calls ------------

UPDATE_PROBLEMS = {
    "mean_deviation": PROBLEMS["mean_deviation"],
    "two_level_tracking": PROBLEMS["two_level_tracking"],
    "single_index": lambda: single_index_problem(SingleIndexConfig(m=4, n=3))[0],
}


def direct_recursion(problem, trackers, v, x, old_chain, batches):
    """The tracker recursion from whole-batch value means and a Python loop
    of per-sample Jacobian products, level by level."""
    a_u, a_v = trackers.alpha, v.alpha
    new_point = problem.flatten(x)
    new_chain, u = [new_point], []
    prods = {"new": None, "old": None}
    for i, (level, batch) in enumerate(zip(problem.levels, batches)):
        m_new = level.value(new_point, batch).mean(axis=0)
        m_old = level.value(old_chain[i], batch).mean(axis=0)
        u.append((1.0 - a_u) * trackers.u[i] + a_u * m_old + (m_new - m_old))
        for key, point in (("new", new_point), ("old", old_chain[i])):
            jac = level.jacobian(point, batch)
            prev = prods[key]
            prods[key] = list(jac) if prev is None else [p @ j for p, j in zip(prev, jac)]
        new_point = u[-1]
        if i + 1 < problem.k:
            new_chain.append(new_point)
    g_new, g_old = (np.mean(prods[k], axis=0).reshape(-1) for k in ("new", "old"))
    want_v = (1.0 - a_v) * problem.flatten(v.v) + a_v * g_old + (g_new - g_old)
    return u, problem.unflatten(want_v), new_chain


@settings(max_examples=40, deadline=None)
@given(
    name=st.sampled_from(sorted(UPDATE_PROBLEMS)),
    seed=st.integers(0, 2**32 - 1),
    b=st.integers(1, 12),
    alpha=st.floats(0.01, 1.0),
)
def test_storm_update_equals_the_direct_recursion(name, seed, b, alpha):
    problem = UPDATE_PROBLEMS[name]()
    gen = np.random.default_rng(seed)
    x_old, x_new = (
        gen.dirichlet(np.ones(problem.levels[0].in_dim)).reshape(problem.x_shape)
        for _ in range(2)
    )
    old_chain = [problem.flatten(x_old)] + exact_inner_values(problem, x_old)[:-1]
    trackers = ValueTrackers(
        u=[gen.normal(size=level.out_dim) for level in problem.levels], alpha=alpha
    )
    grad = GradientTracker(v=gen.normal(size=problem.x_shape), alpha=alpha)
    batches = _level_batches(problem, RandomSource(seed), 3, b)
    want_u, want_v, want_chain = direct_recursion(
        problem, trackers, grad, x_new, old_chain, batches
    )
    counters = OracleCounters()
    got_chain = storm_update(trackers, grad, problem, x_new, old_chain, batches, counters)
    for got, want in zip(trackers.u, want_u, strict=True):
        assert_rel_close(got, want)
    assert_rel_close(grad.v, want_v)
    for got, want in zip(got_chain, want_chain, strict=True):
        assert_rel_close(got, want)
    assert counters.sfo == 2 * problem.k * b


@settings(max_examples=30, deadline=None)
@given(
    name=st.sampled_from(sorted(UPDATE_PROBLEMS)),
    seed=st.integers(0, 2**32 - 1),
    b=st.integers(1, 12),
    alpha=st.floats(0.0, 1.0),
    moved=st.booleans(),
)
def test_empty_trackers_take_their_batch_means(name, seed, b, alpha, moved):
    """An empty tracker (None) becomes its batch mean at any alpha, with or
    without an old chain: the value means along the chain they make, and
    the gradient mean at it."""
    problem = UPDATE_PROBLEMS[name]()
    gen = np.random.default_rng(seed)
    x_old, x_new = (
        gen.dirichlet(np.ones(problem.levels[0].in_dim)).reshape(problem.x_shape)
        for _ in range(2)
    )
    old_chain = [problem.flatten(x_old)] + exact_inner_values(problem, x_old)[:-1]
    batches = _level_batches(problem, RandomSource(seed), 3, b)
    trackers = ValueTrackers(u=[None] * problem.k, alpha=alpha)
    grad = GradientTracker(v=None, alpha=alpha)
    storm_update(trackers, grad, problem, x_new, old_chain if moved else None, batches)
    want = per_sample_means(problem, [x_new] + trackers.u[:-1], batches)
    for got, w in zip(trackers.u + [problem.flatten(grad.v)], want, strict=True):
        assert_rel_close(got, w)
