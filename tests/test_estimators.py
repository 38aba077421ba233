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
from pmvr import estimators, rng as rng_module
from pmvr.core import ShapeMismatchError
from pmvr.estimators import (
    _SLICE_ENTRIES,
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
    sample_batch,
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


class TestInit:
    def test_zero_noise_matches_exact_chain(self):
        problem = deterministic_two_level()
        x = np.array([0.3, 0.9])
        counters = OracleCounters()
        u, v = init_trackers(problem, x, 4, RandomSource(1), counters=counters)
        values = exact_inner_values(problem, x)
        for got, y in zip(u, values):
            assert np.allclose(got, y, atol=1e-15)
        assert np.allclose(v, exact_gradient(problem, x), atol=1e-15)
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
        u, _ = init_trackers(problem, x, 1, RandomSource(3))
        assert len(u) == 2

    def test_rejects_empty_batch(self):
        problem = deterministic_two_level()
        with pytest.raises(ValueError):
            init_trackers(problem, np.zeros(2), 0, RandomSource(0))

    def test_rejects_an_oracle_that_ignores_the_batch_axis(self):
        problem = deterministic_two_level()
        problem.levels[1] = replace(
            problem.levels[1], value=lambda y, s: np.array([y[0] * y[1]])
        )
        with pytest.raises(ShapeMismatchError, match=r"value oracle returned shape \(1,\)"):
            init_trackers(problem, np.zeros(2), 3, RandomSource(0))

    def test_rejects_a_jacobian_oracle_that_ignores_the_batch_axis(self):
        problem = deterministic_two_level()
        problem.levels[1] = replace(
            problem.levels[1], jacobian=lambda y, s: np.array([[y[1]], [y[0]]])
        )
        with pytest.raises(ShapeMismatchError, match=r"^level 2 jacobian oracle returned "
                           r"shape \(2, 1\), expected \(3, 2, 1\)$"):
            init_trackers(problem, np.zeros(2), 3, RandomSource(0))


class TestValueUpdate:
    def test_momentum_off_is_batch_mean(self):
        level = additive_noise_scalar_level()
        problem = CompositionalProblem([level])
        u, _ = storm_update(
            [np.array([9.0])], None, 1.0, problem, np.array([2.0]), np.array([1.0]),
            [[0.25, -0.25]],
        )
        got = u[0]
        assert got[0] == pytest.approx(2.0, abs=1e-12)

    def test_hand_substitution(self):
        # 0.5*2 + f(1.5; 0) - 0.5*f(1.0; 0) = 2.0
        level = additive_noise_scalar_level()
        problem = CompositionalProblem([level])
        u, _ = storm_update(
            [np.array([2.0])], None, 0.5, problem, np.array([1.5]), np.array([1.0]), [[0.0]]
        )
        got = u[0]
        assert got[0] == pytest.approx(2.0, abs=1e-15)

    def test_telescoping_is_bit_stationary(self):
        level = additive_noise_scalar_level()
        problem = CompositionalProblem([level])
        before = np.array([0.123456789e-3])
        point = np.array([1.7])
        u, _ = storm_update([before.copy()], None, 0.0, problem, point, point, [[0.4, -1.2]])
        got = u[0]
        assert got[0] == before[0]  # exact bit-level equality

    def test_rejects_empty_batch(self):
        level = additive_noise_scalar_level()
        problem = CompositionalProblem([level])
        with pytest.raises(ValueError):
            storm_update([np.zeros(1)], None, 0.5, problem, np.zeros(1), np.zeros(1), [[]])


class TestGradientUpdate:
    def test_momentum_off_noiseless_is_exact_chain(self):
        problem = deterministic_two_level()
        x = np.array([0.2, 0.5])
        # the level-1 tracker holds the old chain's input f_1(x)
        u = [problem.levels[0].exact_value(x), np.zeros(1)]
        _, got = storm_update(u, np.zeros(2), 1.0, problem, x, x, [[0], [0]])
        assert np.allclose(got, exact_gradient(problem, x), atol=1e-12)

    def test_identical_chains_alpha_zero_stationary(self):
        problem = finite_noisy_problem()
        x = np.array([0.4, 0.6])
        chain = [x, problem.levels[0].exact_value(x)]
        v0 = np.array([0.31, -0.17])
        # the level-1 tracker is the old chain's input, so both chains agree
        _, got = storm_update(
            [chain[1].copy(), np.zeros(1)], v0.copy(), 0.0, problem, x, x, [[2, 4], [1, 3]]
        )
        assert np.array_equal(got, v0)

    def test_wrong_chain_length(self):
        # one value tracker for two levels: the old chain it makes is too short
        problem = deterministic_two_level()
        with pytest.raises(ValueError):
            storm_update(
                [np.zeros(2)], np.zeros(2), 0.5, problem, np.zeros(2), np.zeros(2), [[0], [0]]
            )


def test_deterministic_mode_tracks_exact_quantities():
    # zero-noise oracles with alpha = 1 reproduce the exact chain each step
    problem = deterministic_two_level()
    x = np.array([0.3, 0.7])
    u, v = init_trackers(problem, x, 2, RandomSource(5))
    for step in range(10):
        x = x + 0.01 * np.array([1.0, -1.0])
        u, v = storm_update(u, v, 1.0, problem, x, None, [[0], [0]])
        values = exact_inner_values(problem, x)
        for got, y in zip(u, values):
            assert np.abs(got - y).max() <= 1e-12
        assert np.abs(v - exact_gradient(problem, x)).max() <= 1e-12


# --- batch means against single-sample batches ------------------------------

PROBLEMS = {
    "mean_deviation": lambda: mean_deviation_problem(
        synthetic_portfolio_data(d=5, periods=60, data_seed=1), 1.0
    ),
    "two_level_tracking": lambda: two_level_tracking_problem(data_seed=2),
}


def whole_batches(problem, rng, size):
    """Every level's first batch drawn whole from its stream: the reference
    for the batches ``_level_batches`` leaves to the walk."""
    return [
        sample_batch(level, rng.split(i).generator, size)
        for i, level in enumerate(problem.levels, start=1)
    ]


def batch_case(name, seed, b):
    """A problem, a random point's exact chain u^0..u^{K-1}, and per-level
    batches of size b from the solver's substreams."""
    problem = PROBLEMS[name]()
    gen = np.random.default_rng(seed)
    x = gen.dirichlet(np.ones(problem.levels[0].in_dim))
    chain = [x] + exact_inner_values(problem, x)[:-1]
    return problem, chain, whole_batches(problem, RandomSource(seed), b)


def sample(batch, j):
    return tuple(a[j:j + 1] for a in batch) if isinstance(batch, tuple) else batch[j:j + 1]


def walk_means(problem, chain, batches):
    """Every level's value mean and the gradient mean of one walk that
    keeps the given chain inputs u^0..u^{K-1}."""
    means = []

    def fixed(i, mean, _):
        means.append(mean)
        return chain[i + 1] if i + 1 < len(chain) else None

    grad, _ = _walk(problem, chain[0], None, batches, fixed)
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


def test_sliced_walk_holds_one_product_stack():
    # mean-deviation at d = 12: level 1's Jacobians are 12 x 13, so B = 2000
    # runs in 5 slices; the per-slice products are never joined into a
    # second (B, 12, 13) stack
    problem = mean_deviation_problem(synthetic_portfolio_data(d=12, periods=300), 1.0)
    b = 2000
    assert -(-b // (_SLICE_ENTRIES // (12 * 13))) == 5
    batches = whole_batches(problem, RandomSource(5), b)
    x = np.full(12, 1.0 / 12)
    tracemalloc.start()
    try:
        _walk(problem, x, None, batches, lambda i, m, _: m)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1.5 * (8 * b * 12 * 13)


def test_streamed_initialization_keeps_one_slice_of_samples_alive():
    # 64 samples at 200 x 200 are 20 MB drawn whole; the walk draws them one
    # slice at a time and drops each once reduced
    problem, _ = single_index_problem(SingleIndexConfig(m=200, n=200, sigma=0.1))
    level = problem.levels[0]
    assert _SLICE_ENTRIES // level.in_dim == 1
    slice_bytes = 8 * level.in_dim
    tracemalloc.start()
    try:
        init_trackers(problem, problem.x_start, 64, RandomSource(5))
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
    streamed = _level_batches(problem, RandomSource(9), b)
    assert [type(bt) for bt in streamed] == [_Stream, np.ndarray, _Stream]

    counters = OracleCounters()
    init_u, init_v = init_trackers(problem, x, b, RandomSource(8), counters)
    u = []

    def keep(i, mean, _):
        u.append(mean)
        return mean

    v, _ = _walk(problem, x, None, whole_batches(problem, RandomSource(8), b), keep)
    assert all(np.array_equal(got, want) for got, want in zip(init_u, u, strict=True))
    assert np.array_equal(init_v, v)
    assert counters.sfo == problem.k * b

    x_new = x + 0.01
    runs = []
    for batches in (streamed, whole_batches(problem, RandomSource(9), b)):
        runs.append(storm_update(init_u, init_v, 0.5, problem, x_new, x, batches))
    (got_u, got_v), (want_u, want_v) = runs
    assert all(np.array_equal(a, c) for a, c in zip(got_u, want_u, strict=True))
    assert np.array_equal(got_v, want_v)


@settings(max_examples=60, deadline=None)
@given(
    name=st.sampled_from(sorted(PROBLEMS)),
    seed=st.integers(0, 2**32 - 1),
    b=st.integers(1, 40),
)
def test_identical_chains_at_alpha_zero_leave_trackers_bit_identical(name, seed, b):
    problem, chain, batches = batch_case(name, seed, b)
    u, v = init_trackers(problem, chain[0], b, RandomSource(seed + 1))
    u_before = [a.copy() for a in u]
    v_before = v.copy()
    # the old chain runs through the trackers themselves and the new one
    # through their updates, equal but distinct arrays, so the old and new
    # means are computed apart
    u, v = storm_update(u, v, 0.0, problem, chain[0], chain[0].copy(), batches)
    assert all(np.array_equal(a, ub) for a, ub in zip(u, u_before))
    assert np.array_equal(v, v_before)


def finite_level(size):
    """A one-level problem on a finite dataset of ``size`` records whose
    oracles are never called."""
    def unused(*args):
        raise AssertionError("an oracle was called")

    return CompositionalProblem([Level(1, 1, unused, unused, unused, unused,
                                       samples=FiniteSamples(size))])


# B0, then stage 1's B1 for 300 steps, then stage 2's B1 for 5 steps: 5100
# indices cross the first chunk boundary inside a B1 batch, and the 1000s
# cross the second one
STAGE_SIZES = [3000] + [7] * 300 + [1000] * 5


@pytest.mark.parametrize("high", [2, 7, 500, 1100, 2**31 + 5, 2**32 - 1])
@pytest.mark.parametrize("chunk", [1, 1500, rng_module.CHUNK])
def test_finite_batches_equal_per_batch_integers_whatever_the_chunk(high, chunk, monkeypatch):
    """A finite level's batches, served from chunks drawn ahead, are the
    draws ``integers(0, high, size=B)`` of one call per batch on its
    generator, so the chunk size is not part of the stream."""
    monkeypatch.setattr(rng_module, "CHUNK", chunk)
    problem, rng = finite_level(high), RandomSource(13)
    gen = RandomSource(13).split(1).generator
    assert sum(STAGE_SIZES) > 2 * rng_module.CHUNK
    for size in STAGE_SIZES:
        (got,) = _level_batches(problem, rng, size)
        assert np.array_equal(got, gen.integers(0, high, size=size)), size
        assert got.flags.owndata and not np.shares_memory(got, rng.level(1).ahead)


@pytest.mark.parametrize("steps, size", [(0, 10), (1, 8), (2, 257), (300, 256),
                                         (1, rng_module.CHUNK + 1)])
def test_finite_step_batches_equal_their_level_streams(steps, size):
    """On a problem of several finite levels sharing one source, each
    level's B0 batch and step batches are the draws of its own split
    generator in order, one ``sample_batch`` call per batch."""
    problem = PROBLEMS["mean_deviation"]()
    assert problem.k > 1 and all(isinstance(lv.samples, FiniteSamples) for lv in problem.levels)
    rng = RandomSource(5)
    gens = [RandomSource(5).split(i).generator for i in range(1, problem.k + 1)]
    for b in [10] + [size] * steps:
        got = _level_batches(problem, rng, b)
        want = [sample_batch(level, gen, b) for level, gen in zip(problem.levels, gens)]
        assert all(np.array_equal(g, w) for g, w in zip(got, want, strict=True))


def test_a_finite_samples_subclass_draws_each_batch_whole():
    """A subclass of FiniteSamples may draw its own way, so its level's
    batches are one ``draw`` call each on the level's generator, with no
    indices drawn ahead."""
    class Reversed(FiniteSamples):
        def draw(self, gen, count):
            return self.size - 1 - gen.integers(0, self.size, size=count)

    problem = finite_level(7)
    problem.levels[0] = replace(problem.levels[0], samples=Reversed(7))
    rng = RandomSource(13)
    gen = RandomSource(13).split(1).generator
    for size in (3, 1, rng_module.CHUNK + 5):
        (got,) = _level_batches(problem, rng, size)
        assert np.array_equal(got, 6 - gen.integers(0, 7, size=size))
    assert len(rng.level(1).ahead) == 0


def test_indices_drawn_ahead_for_another_dataset_size_are_dropped():
    """A source reused on a smaller dataset at the same level draws that
    level's next batch afresh, past the chunk it drew ahead."""
    rng = RandomSource(13)
    _level_batches(finite_level(1100), rng, 5)
    (got,) = _level_batches(finite_level(2), rng, 5)
    gen = RandomSource(13).split(1).generator
    gen.integers(0, 1100, size=rng_module.CHUNK)
    assert np.array_equal(got, gen.integers(0, 2, size=5))


def test_a_batch_larger_than_any_array_fails_in_one_draw():
    """A finite batch is topped up by one draw of its shortfall, so a size
    no array can hold fails at once in numpy, not after many chunks."""
    with pytest.raises(ValueError, match="array is too big"):
        _level_batches(finite_level(7), RandomSource(1), 2**62)


@pytest.mark.parametrize("held, copies", [(0, 1), (5, 2)])
def test_a_large_finite_batch_holds_at_most_two_copies_of_its_indices(held, copies):
    """A batch of CHUNK or more indices is drawn up to its end in one call:
    with nothing drawn ahead that draw is the batch, and otherwise it is
    joined once to the indices held, so no third copy is made."""
    rng = RandomSource(3)
    if held:
        _level_batches(finite_level(7), rng, held)
    tracemalloc.start()
    (batch,) = _level_batches(finite_level(7), rng, 2**20)
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    assert batch.nbytes == 2**23 and peak < (copies + 0.25) * batch.nbytes


@pytest.mark.parametrize("b0", [0, 2.5, True, "3"])
@pytest.mark.parametrize("name", ["finite", "generative"])
def test_init_trackers_refuses_a_batch_size_that_is_not_an_integer_of_at_least_one(b0, name):
    problem = (PROBLEMS["two_level_tracking"]() if name == "finite"
               else single_index_problem(SingleIndexConfig(m=3, n=3))[0])
    x = np.full(problem.x_shape, 0.2)
    with pytest.raises(ValueError, match="^initialization batch size must be an integer >= 1"):
        init_trackers(problem, x, b0, RandomSource(1))


# --- storm_update against the recursion from direct oracle calls ------------

UPDATE_PROBLEMS = {
    "mean_deviation": PROBLEMS["mean_deviation"],
    "two_level_tracking": PROBLEMS["two_level_tracking"],
    "single_index": lambda: single_index_problem(SingleIndexConfig(m=4, n=3))[0],
}


def direct_recursion(problem, prev_u, prev_v, alpha, x, old_chain, batches):
    """The tracker recursion from whole-batch value means and a Python loop
    of per-sample Jacobian products, level by level."""
    new_point = problem.flatten(x)
    u = []
    prods = {"new": None, "old": None}
    for i, (level, batch) in enumerate(zip(problem.levels, batches)):
        m_new = level.value(new_point, batch).mean(axis=0)
        m_old = level.value(old_chain[i], batch).mean(axis=0)
        u.append((1.0 - alpha) * prev_u[i] + alpha * m_old + (m_new - m_old))
        for key, point in (("new", new_point), ("old", old_chain[i])):
            jac = level.jacobian(point, batch)
            prev = prods[key]
            prods[key] = list(jac) if prev is None else [p @ j for p, j in zip(prev, jac)]
        new_point = u[-1]
    g_new, g_old = (np.mean(prods[k], axis=0).reshape(-1) for k in ("new", "old"))
    want_v = (1.0 - alpha) * problem.flatten(prev_v) + alpha * g_old + (g_new - g_old)
    return u, problem.unflatten(want_v)


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
    prev_u = [gen.normal(size=level.out_dim) for level in problem.levels]
    prev_v = gen.normal(size=problem.x_shape)
    old_chain = [problem.flatten(x_old)] + prev_u[:-1]
    batches = whole_batches(problem, RandomSource(seed), b)
    want_u, want_v = direct_recursion(problem, prev_u, prev_v, alpha, x_new, old_chain, batches)
    counters = OracleCounters()
    got_u, got_v = storm_update(prev_u, prev_v, alpha, problem, x_new, x_old, batches, counters)
    for got, want in zip(got_u, want_u, strict=True):
        assert_rel_close(got, want)
    assert_rel_close(got_v, want_v)
    assert counters.sfo == 2 * problem.k * b


def test_storm_update_leaves_its_arguments_unchanged():
    problem = UPDATE_PROBLEMS["two_level_tracking"]()
    x = np.full(5, 0.2)
    u, v = init_trackers(problem, x, 3, RandomSource(2))
    u_before, v_before, x_before = [a.copy() for a in u], v.copy(), x.copy()
    batches = _level_batches(problem, RandomSource(3), 4)
    new_u, new_v = storm_update(u, v, 0.5, problem, x + 0.01, x, batches)
    assert new_u is not u and len(u) == problem.k
    assert all(np.array_equal(a, b) for a, b in zip(u, u_before, strict=True))
    assert np.array_equal(v, v_before)
    assert np.array_equal(x, x_before)
    assert not np.array_equal(new_v, v_before)


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
    batches = whole_batches(problem, RandomSource(seed), b)
    u, v = storm_update(
        [None] * problem.k, None, alpha, problem, x_new, x_old if moved else None, batches
    )
    want = per_sample_means(problem, [x_new] + u[:-1], batches)
    for got, w in zip(u + [problem.flatten(v)], want, strict=True):
        assert_rel_close(got, w)


@pytest.mark.parametrize("trackers", [1, 3])
@pytest.mark.parametrize("moved", [False, True])
def test_storm_update_refuses_a_tracker_count_other_than_k(trackers, moved, monkeypatch):
    """One value tracker per level: a list of another length is refused,
    naming K and its length, before any sample is drawn or counted."""
    problem = two_level_tracking_problem()
    x = np.full(5, 0.2)
    u, v = init_trackers(problem, x, 3, RandomSource(2))
    u = (u + [u[-1]])[:trackers]
    batches = _level_batches(problem, RandomSource(3), 4)
    monkeypatch.setattr(estimators, "sample_batch", lambda *args: pytest.fail("a batch was drawn"))
    counters = OracleCounters()
    with pytest.raises(ValueError, match=rf"K = 2 .*len\(u\) = {trackers}$"):
        storm_update(u, v, 0.5, problem, x + 0.01, x if moved else None, batches, counters)
    assert counters.sfo == 0


# --- the walk's sums start from 0.0 and add the slices in order -------------

def table_problem(gen, k, records=8):
    """A K-level problem whose stochastic oracles return rows of fixed
    tables, indexed by a batch's record indices, whatever the point; and its
    (values, Jacobians) tables. The entries are unit normals with both
    signs of zero among them, so the order of a sum shows in its last bits.
    Level 1's first value column and first Jacobian row are all -0.0, and
    its next ones span 1e-310 to 1e300 with both signs (a second level's
    Jacobian stays unit-sized, so the chain product cannot overflow)."""
    dims = [(4, 1)] if k == 1 else [(4, 3), (3, 1)]
    tables = []
    for n_in, n_out in dims:
        values, jacobians = (
            gen.standard_normal(shape) * np.where(gen.random(shape) < 0.2, 0.0, 1.0)
            for shape in ((records, n_out), (records, n_in, n_out))
        )
        tables.append((values, jacobians))
    values, jacobians = tables[0]
    for a in (values.T, jacobians.transpose(1, 0, 2)):
        a[0] = -0.0
        if len(a) > 1:
            a[1] *= 10.0 ** gen.uniform(-310, 300, a[1].shape)
    levels = [
        Level(n_in, n_out, lambda y, s, t=t: t[0][s], lambda y, s, t=t: t[1][s],
              lambda y: pytest.fail("exact oracle"), lambda y: pytest.fail("exact oracle"),
              samples=FiniteSamples(records))
        for (n_in, n_out), t in zip(dims, tables)
    ]
    return CompositionalProblem(levels), tables


def slice_by_slice_mean(rows_of, size, width):
    """(0.0 + the sum of each slice's np.add.reduce, in order) / size; the
    slice rows are ``rows_of(lo, hi)``."""
    total = 0.0
    for lo in range(0, size, width):
        total = total + np.add.reduce(rows_of(lo, min(lo + width, size)), axis=0)
    return total / size


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("k", [1, 2])
@pytest.mark.parametrize("sliced", [False, True])
def test_walk_means_are_running_sums_from_zero(seed, k, sliced, monkeypatch):
    """Every mean the walk forms is its running sum, started at 0.0 and
    added slice by slice, over B, byte for byte: an all-negative-zero column
    comes out +0.0, and a batch of several slices adds their sums in order."""
    gen = np.random.default_rng(seed)
    problem, tables = table_problem(gen, k)
    largest = max(lv.in_dim * lv.out_dim for lv in problem.levels)
    width = 5 if sliced else _SLICE_ENTRIES // largest
    if sliced:
        monkeypatch.setattr("pmvr.estimators._SLICE_ENTRIES", 5 * largest)
    batch = gen.integers(0, 8, size=24)
    assert (len(batch) > width) == sliced
    means = []

    def record(i, mean_new, mean_old):
        means.append((mean_new, mean_old))
        return mean_new

    x = np.zeros(problem.levels[0].in_dim)
    old_chain = [x] + [np.zeros(lv.in_dim) for lv in problem.levels[1:]]
    grads = _walk(problem, x, old_chain, [batch] * k, record)

    def product(lo, hi):
        rows = tables[0][1][batch[lo:hi]]
        for _, jacobians in tables[1:]:
            rows = rows @ jacobians[batch[lo:hi]]
        return rows

    for (values, _), got in zip(tables, means, strict=True):
        want = slice_by_slice_mean(lambda lo, hi: values[batch[lo:hi]], 24, width)
        assert got[0].tobytes() == want.tobytes() and got[1].tobytes() == want.tobytes()
    want = slice_by_slice_mean(product, 24, width).reshape(-1)
    assert grads[0].tobytes() == want.tobytes() and grads[1].tobytes() == want.tobytes()
    assert means[0][0][0] == 0.0 and not np.signbit(means[0][0][0])


# --- the walk checks its batches before any draw or oracle call -------------

def refusing_problem():
    """K = 2: a generative level 1 and a finite level 2 whose oracles fail
    the test when called."""
    def oracle(*args):
        pytest.fail("an oracle was called")

    return CompositionalProblem([
        Level(1, 2, oracle, oracle, oracle, oracle,
              samples=GenerativeSamples(lambda gen, n: gen.normal(size=n))),
        Level(2, 1, oracle, oracle, oracle, oracle, samples=FiniteSamples(4)),
    ])


SIZES_MESSAGE = "per-level batches must be non-empty and share one size"
COUNT_MESSAGE = "the walk needs one batch and one old chain input per level"


@pytest.mark.parametrize("sizes, trackers, message", [
    ((3, 2), 2, SIZES_MESSAGE),  # mismatched batch sizes
    ((0, 0), 2, SIZES_MESSAGE),  # an empty batch
    ((3,), 2, COUNT_MESSAGE),  # one batch for two levels
    ((3, 3, 3), 2, COUNT_MESSAGE),  # three batches for two levels
    ((3, 3), 1, r"K = 2 levels need K value trackers, got len\(u\) = 1$"),  # a short old chain
])
def test_storm_update_refuses_its_batches_before_any_draw_or_oracle_call(
        sizes, trackers, message, monkeypatch):
    problem = refusing_problem()
    stream = [_Stream(RandomSource(0).split(1).generator, sizes[0])]
    batches = stream + [np.zeros(n, dtype=np.int64) for n in sizes[1:]]
    u = [np.zeros(2), np.zeros(1)][:trackers]
    monkeypatch.setattr(estimators, "sample_batch", lambda *args: pytest.fail("a batch was drawn"))
    counters = OracleCounters()
    with pytest.raises(ValueError, match=message):
        storm_update(u, np.zeros(1), 0.5, problem, np.zeros(1), np.zeros(1), batches, counters)
    assert counters.sfo == 0


def test_walk_refuses_a_short_old_chain_before_any_draw_or_oracle_call(monkeypatch):
    problem = refusing_problem()
    batches = [_Stream(RandomSource(0).split(1).generator, 3), np.zeros(3, dtype=np.int64)]
    monkeypatch.setattr(estimators, "sample_batch", lambda *args: pytest.fail("a batch was drawn"))
    counters = OracleCounters()
    with pytest.raises(ValueError, match=COUNT_MESSAGE):
        _walk(problem, np.zeros(1), [np.zeros(1)], batches, lambda i, m, _: m, counters)
    assert counters.sfo == 0
