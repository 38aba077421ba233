from dataclasses import replace

import numpy as np
import pytest

from pmvr.checks import finite_difference_gradient, relative_error
from pmvr.core import ShapeMismatchError
from pmvr.estimators import _walk
from pmvr.problems import (
    CompositionalProblem,
    FiniteSamples,
    Level,
    ProblemMetadata,
    exact_gradient,
    exact_inner_values,
    objective,
    sample_batch,
)
from pmvr.rng import RandomSource


def linear_level(c, dataset_size=3, noise_scale=0.0):
    """f(x) = <c, x> with optional per-record perturbation of c."""
    c = np.asarray(c, dtype=np.float64)
    d = c.size
    deltas = np.linspace(-1.0, 1.0, dataset_size)[:, None] * noise_scale * np.ones(d)

    def value(x, t):
        return ((c + deltas[t]) @ x)[:, None]

    def jacobian(x, t):
        return (c + deltas[t])[:, :, None]

    def value_exact(x):
        return np.array([c @ x])

    def jacobian_exact(x):
        return c.reshape(-1, 1)

    return Level(d, 1, value, jacobian, value_exact, jacobian_exact,
                 samples=FiniteSamples(dataset_size))


def square_then_sine():
    """K=2 scalar chain: f1(x) = x^2, f2(y) = sin(y)."""
    l1 = Level(
        1, 1,
        lambda x, s: np.full((len(s), 1), x[0] ** 2),
        lambda x, s: np.full((len(s), 1, 1), 2 * x[0]),
        lambda x: np.array([x[0] ** 2]),
        lambda x: np.array([[2 * x[0]]]),
        samples=FiniteSamples(1),
    )
    l2 = Level(
        1, 1,
        lambda y, s: np.full((len(s), 1), np.sin(y[0])),
        lambda y, s: np.full((len(s), 1, 1), np.cos(y[0])),
        lambda y: np.array([np.sin(y[0])]),
        lambda y: np.array([[np.cos(y[0])]]),
        samples=FiniteSamples(1),
    )
    return CompositionalProblem([l1, l2])


def test_exact_inner_values_linear():
    problem = CompositionalProblem([linear_level([1.0, 2.0])])
    values = exact_inner_values(problem, np.array([0.5, 0.5]))
    assert len(values) == 1
    assert values[0][0] == pytest.approx(1.5)


def test_exact_inner_values_two_level():
    problem = square_then_sine()
    values = exact_inner_values(problem, np.array([1.0]))
    assert values[0][0] == pytest.approx(1.0)
    assert values[1][0] == pytest.approx(np.sin(1.0), abs=1e-12)


def test_exact_gradient_linear():
    problem = CompositionalProblem([linear_level([1.0, 2.0])])
    assert np.allclose(exact_gradient(problem, np.array([0.3, 0.7])), [1.0, 2.0])


def test_exact_gradient_chain_vs_finite_differences():
    problem = square_then_sine()
    x = np.array([1.0])
    grad = exact_gradient(problem, x)
    assert grad[0] == pytest.approx(2 * np.cos(1.0), rel=1e-9)
    fd = finite_difference_gradient(lambda p: objective(problem, p), x)
    assert relative_error(grad, fd) <= 1e-5


def test_dimension_mismatch_fails_at_construction():
    good = linear_level([1.0, 2.0])
    with pytest.raises(ShapeMismatchError):
        CompositionalProblem([good, good])  # 1-dim output into 2-dim input
    with pytest.raises(ShapeMismatchError):
        CompositionalProblem(
            [Level(2, 2, None, None, None, None)]  # final level must be scalar
        )


@pytest.mark.parametrize("level, oracle, bad, message", [
    (1, "exact_value", lambda x: np.array([x[0] ** 2, 0.0]),
     r"level 1 exact_value oracle returned shape \(2,\), expected \(1,\)"),
    (2, "exact_value", lambda y: np.array([[np.sin(y[0])]]),
     r"level 2 exact_value oracle returned shape \(1, 1\), expected \(1,\)"),
    (2, "exact_jacobian", lambda y: np.array([np.cos(y[0])]),
     r"level 2 exact_jacobian oracle returned shape \(1,\), expected \(1, 1\)"),
])
def test_exact_oracles_of_the_wrong_shape_name_their_level(level, oracle, bad, message):
    problem = square_then_sine()
    problem.levels[level - 1] = replace(problem.levels[level - 1], **{oracle: bad})
    with pytest.raises(ShapeMismatchError, match=message):
        exact_gradient(problem, np.array([1.0]))


def test_exact_jacobian_must_not_be_transposed():
    level = linear_level([1.0, 2.0])
    level = replace(level, exact_jacobian=lambda x: np.array([[1.0, 2.0]]))
    problem = CompositionalProblem([level])
    assert objective(problem, np.array([0.5, 0.5])) == pytest.approx(1.5)
    with pytest.raises(
        ShapeMismatchError,
        match=r"level 1 exact_jacobian oracle returned shape \(1, 2\), expected \(2, 1\)",
    ):
        exact_gradient(problem, np.array([0.5, 0.5]))


def test_a_scalar_exact_value_counts_as_one_output():
    level = replace(linear_level([1.0, 2.0]), exact_value=lambda x: float(x @ [1.0, 2.0]))
    assert exact_inner_values(CompositionalProblem([level]), np.array([0.5, 0.5]))[0].shape == (1,)


def test_sample_batch_singleton():
    level = linear_level([1.0], dataset_size=1)
    batch = sample_batch(level, RandomSource(0).split(1).generator, 3)
    assert np.array_equal(batch, [0, 0, 0])


def test_sample_batch_deterministic():
    level = linear_level([1.0, 2.0], dataset_size=100)
    a = sample_batch(level, RandomSource(5).split(9).generator, 16)
    b = sample_batch(level, RandomSource(5).split(9).generator, 16)
    assert np.array_equal(a, b)


@pytest.mark.parametrize("build, error, message", [
    (lambda: CompositionalProblem([]), ValueError,
     r"a compositional problem needs at least one level"),
    (lambda: CompositionalProblem([linear_level([1.0, 2.0])], x_shape=(3,)), ShapeMismatchError,
     r"x_shape \(3,\) is incompatible with level-1 input dim 2"),
    (lambda: CompositionalProblem([linear_level([1.0, 2.0])]).flatten(np.zeros(3)),
     ShapeMismatchError, r"point shape \(3,\) does not match problem shape \(2,\)"),
    (lambda: sample_batch(replace(linear_level([1.0]), samples=None),
                          RandomSource(0).split(1).generator, 2),
     ValueError, r"level has no sample space"),
])
def test_a_problem_refuses_what_it_cannot_hold(build, error, message):
    with pytest.raises(error, match=f"^{message}$"):
        build()


def test_sample_batch_rejects_empty():
    level = linear_level([1.0])
    with pytest.raises(ValueError):
        sample_batch(level, RandomSource(0).split(1).generator, 0)


@pytest.mark.parametrize("build, name", [
    (lambda: FiniteSamples(2.7), "finite sample space size"),
    (lambda: FiniteSamples(True), "finite sample space size"),
    (lambda: FiniteSamples("3"), "finite sample space size"),
    (lambda: FiniteSamples(0), "finite sample space size"),
    (lambda: sample_batch(linear_level([1.0]), RandomSource(0).split(1).generator, 2.5),
     "batch size"),
    (lambda: sample_batch(linear_level([1.0]), RandomSource(0).split(1).generator, True),
     "batch size"),
    (lambda: sample_batch(linear_level([1.0]), RandomSource(0).split(1).generator, "3"),
     "batch size"),
])
def test_finite_sampling_counts_must_be_integers_of_at_least_one(build, name):
    """A record count or batch size that is a float, a bool or a string is
    refused with its name, not truncated, taken as 0 or 1, or left to a
    TypeError."""
    with pytest.raises(ValueError, match=f"^{name} must be an integer >= 1"):
        build()


def test_sample_batch_uniformity():
    level = linear_level([1.0], dataset_size=100)
    batch = sample_batch(level, RandomSource(123).split(2).generator, 100_000)
    counts = np.bincount(batch, minlength=100)
    freqs = counts / len(batch)
    # each frequency within 2 percentage points of the uniform 1%
    assert np.abs(freqs - 0.01).max() <= 0.02
    # chi-square goodness of fit against uniform at a fixed seed
    expected = len(batch) / 100
    chi2 = float(((counts - expected) ** 2 / expected).sum())
    assert 60.0 <= chi2 <= 150.0  # chi2_99 far tails


def test_unbiasedness_over_finite_dataset():
    gen = np.random.default_rng(10)
    level = linear_level([1.0, -2.0], dataset_size=7, noise_scale=0.5)
    for _ in range(5):
        x = gen.standard_normal(2)
        avg = level.value(x, np.arange(7)).mean(axis=0)
        assert np.abs(avg - level.exact_value(x)).max() <= 1e-12
        avg_jac = level.jacobian(x, np.arange(7)).mean(axis=0)
        assert np.abs(avg_jac - level.exact_jacobian(x)).max() <= 1e-12


def chain_gradient_mean(problem, chain, batches):
    """The walk's gradient mean along the given chain inputs u^0..u^{K-1}."""
    grad, _ = _walk(
        problem, chain[0], None, batches,
        lambda i, mean, _: chain[i + 1] if i + 1 < len(chain) else mean,
    )
    return grad


class TestStochasticChainJacobian:
    """The batch mean of sample-wise noisy-Jacobian chain products."""

    def test_zero_noise_matches_exact(self):
        problem = square_then_sine()
        x = np.array([0.7])
        chain = [x, problem.levels[0].exact_value(x)]
        got = chain_gradient_mean(problem, chain, [[0], [0]])
        want = exact_gradient(problem, x)
        assert np.allclose(got, want, atol=1e-15)

    def test_single_level(self):
        problem = CompositionalProblem([linear_level([1.0, 2.0], noise_scale=0.3)])
        got = chain_gradient_mean(problem, [np.array([0.5, 0.5])], [[0]])
        assert got.shape == (2,)

    def test_full_enumeration_average_matches_exact(self):
        size = 5
        l1 = linear_level([1.0, -1.0], dataset_size=size, noise_scale=0.4)
        gen = np.random.default_rng(11)
        x = gen.standard_normal(2)
        per_level_avg = l1.jacobian(x, np.arange(size)).mean(axis=0)
        assert np.abs(per_level_avg - l1.exact_jacobian(x)).max() <= 1e-12

    def test_wrong_chain_length(self):
        problem = square_then_sine()
        with pytest.raises(ValueError):
            _walk(
                problem, np.array([1.0]), [np.array([1.0])], [[0], [0]],
                lambda i, mean, _: mean,
            )


def test_declared_lower_bound_enforced():
    level = linear_level([1.0, 1.0])
    problem = CompositionalProblem(
        [level], metadata=ProblemMetadata(f_star=10.0)
    )
    with pytest.raises(ValueError, match="lower"):
        objective(problem, np.array([0.5, 0.5]))
