import numpy as np
import pytest

from pmvr.metrics import (
    OracleCounters,
    expected_baseline_sfo,
    expected_lmo,
    expected_sfo,
    fw_gap,
    gradient_mapping,
    optimal_gap,
)
from pmvr.problems import CompositionalProblem, FiniteSamples, Level, ProblemMetadata
from pmvr.sets import Box, Simplex


def linear_problem(c):
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


def quadratic_problem(c, f_star=None):
    c = np.asarray(c, dtype=np.float64)
    level = Level(
        c.size, 1,
        lambda x, s: np.full((len(s), 1), (x - c) @ (x - c)),
        lambda x, s: np.broadcast_to((2 * (x - c)).reshape(-1, 1), (len(s), c.size, 1)),
        lambda x: np.array([(x - c) @ (x - c)]),
        lambda x: (2 * (x - c)).reshape(-1, 1),
        samples=FiniteSamples(1),
    )
    meta = ProblemMetadata(f_star=f_star, strong_convexity=2.0)
    return CompositionalProblem([level], metadata=meta)


class TestFwGap:
    def test_linear_hand_value(self):
        problem = linear_problem([1.0, 2.0])
        assert fw_gap(problem, Simplex(2), np.array([0.5, 0.5])) == pytest.approx(0.5)

    def test_zero_at_minimizer(self):
        problem = linear_problem([1.0, 2.0])
        assert fw_gap(problem, Simplex(2), np.array([1.0, 0.0])) == pytest.approx(0.0, abs=1e-12)

    def test_zero_gradient(self):
        problem = quadratic_problem([0.5, 0.5])
        assert fw_gap(problem, Simplex(2), np.array([0.5, 0.5])) == pytest.approx(0.0, abs=1e-12)

    def test_an_lmo_that_misses_the_minimizer_is_refused(self):
        class Maximizing(Simplex):
            def lmo(self, d):
                return super().lmo(-d)

        problem = linear_problem([1.0, 2.0])
        with pytest.raises(ValueError, match=r"^Frank-Wolfe gap came out -1\.0, below -1e-9$"):
            fw_gap(problem, Maximizing(2), np.array([1.0, 0.0]))

    def test_nonnegative_on_random_feasible_points(self):
        gen = np.random.default_rng(0)
        problem = quadratic_problem([2.0, -1.0])
        fset = Simplex(2)
        for _ in range(50):
            x = fset.project(gen.normal(0, 1, size=2))
            assert fw_gap(problem, fset, x) >= -1e-9


class TestGradientMapping:
    def test_interior_reduces_to_gradient_norm(self):
        problem = linear_problem([1.0, 1.0])
        box = Box([-10.0, -10.0], [10.0, 10.0])
        got = gradient_mapping(problem, box, np.array([0.0, 0.0]), beta=1.0)
        assert got == pytest.approx(2.0, abs=1e-12)

    def test_zero_gradient(self):
        problem = quadratic_problem([0.2, 0.2])
        box = Box([-1.0, -1.0], [1.0, 1.0])
        assert gradient_mapping(problem, box, np.array([0.2, 0.2])) == pytest.approx(0.0, abs=1e-14)

    def test_beta_invariance_on_interior_points(self):
        gen = np.random.default_rng(1)
        problem = quadratic_problem([0.1, -0.3])
        box = Box([-100.0, -100.0], [100.0, 100.0])
        for _ in range(10):
            x = gen.normal(0, 1, size=2)
            a = gradient_mapping(problem, box, x, beta=1.0)
            b = gradient_mapping(problem, box, x, beta=2.0)
            assert a == pytest.approx(b, rel=1e-10)

    def test_requires_positive_beta(self):
        problem = linear_problem([1.0, 1.0])
        with pytest.raises(ValueError):
            gradient_mapping(problem, Simplex(2), np.array([0.5, 0.5]), beta=0.0)


class TestOptimalGap:
    def test_zero_at_minimizer(self):
        fset = Simplex(2)
        c = np.array([0.2, 0.4])
        x_star = fset.project(c)
        problem = quadratic_problem(c, f_star=float((x_star - c) @ (x_star - c)))
        assert optimal_gap(problem, x_star) == pytest.approx(0.0, abs=1e-9)

    def test_hand_value(self):
        # minimizer (0.4, 0.6), F* = 0.08, gap at e1 = 0.8 - 0.08
        c = np.array([0.2, 0.4])
        problem = quadratic_problem(c, f_star=0.08)
        assert optimal_gap(problem, np.array([1.0, 0.0])) == pytest.approx(0.72)

    def test_reference_value_supplied(self):
        problem = quadratic_problem([0.2, 0.4])
        gap = optimal_gap(problem, np.array([1.0, 0.0]), f_star=0.08)
        assert gap >= -1e-9

    def test_missing_reference_rejected(self):
        problem = quadratic_problem([0.2, 0.4])
        with pytest.raises(ValueError):
            optimal_gap(problem, np.array([1.0, 0.0]))


def test_criterion_zero_consistency():
    # both criteria vanish together at constrained stationary points
    fset = Simplex(3)
    for c in ([0.2, 0.4, 0.1], [2.0, -1.0, 0.0]):
        c = np.array(c)
        x_star = fset.project(c)
        problem = quadratic_problem(c)
        if fw_gap(problem, fset, x_star) <= 1e-10:
            assert gradient_mapping(problem, fset, x_star) <= 1e-8


def test_metrics_leave_counters_alone():
    problem = quadratic_problem([2.0, -1.0], f_star=2.0)
    fset = Simplex(2)
    counters = OracleCounters(sfo=17, lmo=5)
    x = np.array([0.5, 0.5])
    fw_gap(problem, fset, x)
    gradient_mapping(problem, fset, x)
    optimal_gap(problem, x)
    assert counters.sfo == 17 and counters.lmo == 5


@pytest.mark.parametrize(
    "t, k, b0, b1, want",
    [
        (0, 2, 5, 1, 10),
        (1, 2, 5, 3, 16),
        (4, 3, 2, 2, 6 + 6 + 36),
    ],
)
def test_expected_sfo_formula(t, k, b0, b1, want):
    assert expected_sfo(t, k, b0, b1) == want


def test_expected_lmo_formula():
    assert expected_lmo(7) == 7
    assert expected_lmo(7, 10) == 70
    assert expected_baseline_sfo(5, 3, 2) == 30
