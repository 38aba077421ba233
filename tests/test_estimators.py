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
    _batch_mean,
    _level_batches,
    init_trackers,
    storm_gradient_update,
    storm_value_update,
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
        got = storm_value_update(
            trackers, problem, 1, np.array([2.0]), np.array([1.0]), [0.25, -0.25]
        )
        assert got[0] == pytest.approx(2.0, abs=1e-12)

    def test_hand_substitution(self):
        # 0.5*2 + f(1.5; 0) - 0.5*f(1.0; 0) = 2.0
        level = additive_noise_scalar_level()
        problem = CompositionalProblem([level])
        trackers = ValueTrackers(u=[np.array([2.0])], alpha=0.5)
        got = storm_value_update(
            trackers, problem, 1, np.array([1.5]), np.array([1.0]), [0.0]
        )
        assert got[0] == pytest.approx(2.0, abs=1e-15)

    def test_telescoping_is_bit_stationary(self):
        level = additive_noise_scalar_level()
        problem = CompositionalProblem([level])
        before = np.array([0.123456789e-3])
        trackers = ValueTrackers(u=[before.copy()], alpha=0.0)
        point = np.array([1.7])
        got = storm_value_update(trackers, problem, 1, point, point, [0.4, -1.2])
        assert got[0] == before[0]  # exact bit-level equality

    def test_rejects_empty_batch(self):
        level = additive_noise_scalar_level()
        problem = CompositionalProblem([level])
        trackers = ValueTrackers(u=[np.zeros(1)], alpha=0.5)
        with pytest.raises(ValueError):
            storm_value_update(trackers, problem, 1, np.zeros(1), np.zeros(1), [])


class TestGradientUpdate:
    def test_momentum_off_noiseless_is_exact_chain(self):
        problem = deterministic_two_level()
        x = np.array([0.2, 0.5])
        chain = [x, problem.levels[0].exact_value(x)]
        tracker = GradientTracker(v=np.zeros(2), alpha=1.0)
        got = storm_gradient_update(tracker, problem, chain, chain, [[0], [0]])
        assert np.allclose(got, exact_gradient(problem, x), atol=1e-12)

    def test_identical_chains_alpha_zero_stationary(self):
        problem = finite_noisy_problem()
        x = np.array([0.4, 0.6])
        chain = [x, problem.levels[0].exact_value(x)]
        v0 = np.array([0.31, -0.17])
        tracker = GradientTracker(v=v0.copy(), alpha=0.0)
        got = storm_gradient_update(tracker, problem, chain, list(chain), [[2, 4], [1, 3]])
        assert np.array_equal(got, v0)

    def test_wrong_chain_length(self):
        problem = deterministic_two_level()
        tracker = GradientTracker(v=np.zeros(2), alpha=0.5)
        with pytest.raises(ValueError):
            storm_gradient_update(tracker, problem, [np.zeros(2)], [np.zeros(2)], [[0], [0]])


def test_deterministic_mode_tracks_exact_quantities():
    # zero-noise oracles with alpha = 1 reproduce the exact chain each step
    problem = deterministic_two_level()
    x = np.array([0.3, 0.7])
    trackers, grad = init_trackers(problem, x, 2, RandomSource(5), alpha=1.0)
    for step in range(10):
        x = x + 0.01 * np.array([1.0, -1.0])
        chain = [x]
        for i in range(1, problem.k + 1):
            u_i = storm_value_update(
                trackers, problem, i, chain[i - 1], chain[i - 1], [0]
            )
            if i < problem.k:
                chain.append(u_i)
        storm_gradient_update(grad, problem, chain, chain, [[0], [0]])
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


def per_sample_mean(levels, points, batches, oracle="jacobian"):
    """The loop reference: the average of B single-sample batch means."""
    b = len(batches[0][0]) if isinstance(batches[0], tuple) else len(batches[0])
    parts = [
        _batch_mean(levels, points, [sample(bt, j) for bt in batches], oracle)
        for j in range(b)
    ]
    return np.sum(parts, axis=0) / b


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
    for level, point, batch in zip(problem.levels, chain, batches):
        got = _batch_mean([level], [point], [batch], "value")
        assert_rel_close(got, per_sample_mean([level], [point], [batch], "value"))
    got = _batch_mean(problem.levels, chain, batches)
    assert_rel_close(got, per_sample_mean(problem.levels, chain, batches))


def test_sliced_reduction_of_large_jacobians():
    problem, _ = single_index_problem(SingleIndexConfig(m=200, n=200, sigma=0.1))
    level = problem.levels[0]
    b = 3
    assert _SLICE_ENTRIES // level.in_dim < b  # more than one slice
    batch = level.samples.draw(RandomSource(5).split(1).generator, b)
    point = problem.x_start.reshape(-1)
    for oracle in ("value", "jacobian"):
        got = _batch_mean([level], [point], [batch], oracle)
        assert_rel_close(got, per_sample_mean([level], [point], [batch], oracle))
        whole = getattr(level, oracle)(point, batch).mean(axis=0).reshape(-1)
        assert_rel_close(got, whole)


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
    # equal but distinct arrays, so the old and new means are computed apart
    old_chain = [c.copy() for c in chain]
    for i, batch in enumerate(batches, start=1):
        storm_value_update(trackers, problem, i, chain[i - 1], old_chain[i - 1], batch)
    storm_gradient_update(grad, problem, chain, old_chain, batches)
    assert all(np.array_equal(u, ub) for u, ub in zip(trackers.u, u_before))
    assert np.array_equal(grad.v, v_before)
