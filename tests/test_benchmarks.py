import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pmvr.benchmarks import (
    MEASUREMENT_NOISE_VAR,
    SQRT_SHIFT,
    PortfolioData,
    SingleIndexConfig,
    mean_deviation_problem,
    mean_variance_problem,
    quadratic_distance_problem,
    single_index_problem,
    synthetic_portfolio_data,
    two_level_tracking_problem,
)
from pmvr.checks import finite_difference_gradient, relative_error
from pmvr.problems import exact_gradient, objective
from pmvr.rng import RandomSource
from pmvr.sets import Simplex


@pytest.fixture(scope="module")
def toy_data():
    return PortfolioData(np.array([[0.01, 0.0], [0.0, 0.01]]))


@pytest.fixture(scope="module")
def synth_data():
    return synthetic_portfolio_data(d=5, periods=60, data_seed=1)


class TestMeanVariance:
    def test_hand_value(self):
        # equal weights on anti-correlated periods: variance term vanishes
        data = PortfolioData(np.array([[1.0, 0.0], [0.0, 1.0]]))
        problem = mean_variance_problem(data, 1.0)
        assert objective(problem, np.array([0.5, 0.5])) == pytest.approx(-0.5)

    def test_risk_off_limit_is_linear(self, synth_data):
        problem = mean_variance_problem(synth_data, 0.0)
        x = np.full(5, 0.2)
        assert objective(problem, x) == pytest.approx(-float(synth_data.rbar @ x))
        assert np.allclose(exact_gradient(problem, x), -synth_data.rbar, atol=1e-15)

    def test_gradient_matches_finite_differences(self, synth_data):
        problem = mean_variance_problem(synth_data, 1.0)
        fset = Simplex(5)
        gen = np.random.default_rng(2)
        for _ in range(5):
            x = fset.project(gen.normal(0.2, 0.5, size=5))
            fd = finite_difference_gradient(lambda p: objective(problem, p), x)
            assert relative_error(exact_gradient(problem, x), fd) <= 1e-5

    def test_composition_equals_direct_formula(self, synth_data):
        problem = mean_variance_problem(synth_data, 2.5)
        r = synth_data.returns
        gen = np.random.default_rng(3)
        fset = Simplex(5)
        for _ in range(20):
            x = fset.project(gen.normal(0.2, 0.5, size=5))
            port = r @ x
            direct = -port.mean() + 2.5 * port.var()
            assert objective(problem, x) == pytest.approx(direct, abs=1e-12)

    def test_midpoint_convexity(self, synth_data):
        problem = mean_variance_problem(synth_data, 1.0)
        gen = np.random.default_rng(4)
        fset = Simplex(5)
        for _ in range(20):
            a = fset.project(gen.normal(0.2, 0.5, size=5))
            b = fset.project(gen.normal(0.2, 0.5, size=5))
            mid = objective(problem, 0.5 * (a + b))
            assert mid <= 0.5 * (objective(problem, a) + objective(problem, b)) + 1e-12

    def test_stochastic_oracles_average_to_exact(self, toy_data):
        problem = mean_variance_problem(toy_data, 1.0)
        gen = np.random.default_rng(5)
        for level in problem.levels:
            for _ in range(5):
                point = gen.normal(0.3, 0.4, size=level.in_dim)
                avg = level.value(point, np.arange(toy_data.periods)).mean(axis=0)
                assert np.abs(avg - level.exact_value(point)).max() <= 1e-12

    def test_rejects_negative_risk_weight(self, toy_data):
        with pytest.raises(ValueError):
            mean_variance_problem(toy_data, -0.1)


class TestMeanDeviation:
    def test_rejects_negative_risk_weight(self, toy_data):
        with pytest.raises(ValueError, match="^risk weight must be non-negative$"):
            mean_deviation_problem(toy_data, -0.1)

    def test_zero_variance_data(self):
        data = PortfolioData(np.tile(np.array([0.02, 0.01]), (4, 1)))
        problem = mean_deviation_problem(data, 1.0)
        x = np.array([0.5, 0.5])
        assert objective(problem, x) == pytest.approx(-0.015, abs=1e-5)

    def test_hand_value(self):
        data = PortfolioData(np.array([[1.0, 0.0], [0.0, 1.0]]))
        problem = mean_deviation_problem(data, 1.0)
        assert objective(problem, np.array([0.5, 0.5])) == pytest.approx(-0.5, abs=1e-6)

    def test_composition_matches_direct_formula(self, synth_data):
        problem = mean_deviation_problem(synth_data, 1.5)
        gen = np.random.default_rng(6)
        fset = Simplex(5)
        for _ in range(20):
            x = fset.project(gen.normal(0.2, 0.5, size=5))
            direct = mean_deviation_direct(synth_data, 1.5, x)
            assert abs(objective(problem, x) - direct) <= 1e-6

    def test_gradient_matches_finite_differences(self, synth_data):
        problem = mean_deviation_problem(synth_data, 1.0)
        fset = Simplex(5)
        gen = np.random.default_rng(7)
        for _ in range(5):
            x = fset.project(gen.normal(0.2, 0.5, size=5))
            fd = finite_difference_gradient(lambda p: objective(problem, p), x)
            assert relative_error(exact_gradient(problem, x), fd) <= 1e-5

    def test_stochastic_oracles_average_to_exact(self, synth_data):
        problem = mean_deviation_problem(synth_data, 1.0)
        gen = np.random.default_rng(8)
        for level in problem.levels:
            point = np.abs(gen.normal(0.3, 0.2, size=level.in_dim)) + 0.05
            avg = level.value(point, np.arange(synth_data.periods)).mean(axis=0)
            assert np.abs(avg - level.exact_value(point)).max() <= 1e-12

    def test_composed_gradient_matches_direct_formula_fd(self, synth_data):
        # gradient of the level decomposition vs finite differences of the
        # single-formula objective (independent of the chain path)
        problem = mean_deviation_problem(synth_data, 1.5)
        fset = Simplex(5)
        gen = np.random.default_rng(12)
        for _ in range(5):
            x = fset.project(gen.normal(0.2, 0.5, size=5))
            fd = finite_difference_gradient(
                lambda p: mean_deviation_direct(synth_data, 1.5, p), x
            )
            assert relative_error(exact_gradient(problem, x), fd) <= 1e-4

    def test_tracker_domain_extension_is_finite_and_c1(self, synth_data):
        # the square-root level accepts (transient) negative variance inputs
        problem = mean_deviation_problem(synth_data, 1.0)
        g3 = problem.levels[2]
        below = g3.exact_value(np.array([0.1, -1e-6]))
        assert np.isfinite(below).all()
        jac_below = g3.exact_jacobian(np.array([0.1, -1e-6]))
        jac_zero = g3.exact_jacobian(np.array([0.1, 0.0]))
        assert np.isfinite(jac_below).all()
        assert jac_below[1, 0] == pytest.approx(jac_zero[1, 0], rel=1e-6)


class TestSingleIndex:
    @pytest.mark.parametrize("fields, message", [
        ({"m": 1}, "matrix dimensions must be >= 2"),
        ({"n": 1}, "matrix dimensions must be >= 2"),
        ({"sigma": -0.1}, "label noise must be non-negative"),
        ({"s": 0.5}, "radius below 1 cannot contain the unit-norm target"),
    ])
    def test_config_refuses_what_it_cannot_build(self, fields, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            SingleIndexConfig(**fields)

    def test_target_has_unit_nuclear_norm(self):
        problem, _ = single_index_problem(SingleIndexConfig(m=6, n=6, sigma=0.0))
        sig = np.linalg.svd(problem.b_star, compute_uv=False)
        assert sig.sum() == pytest.approx(1.0, abs=1e-9)
        assert (sig > 1e-12).sum() == 1  # rank one by construction

    def test_perfect_recovery_no_noise(self):
        problem, _ = single_index_problem(SingleIndexConfig(m=5, n=5, sigma=0.0))
        b_star = problem.b_star
        # every stochastic loss sample vanishes at the target
        gen = RandomSource(1).split(1).generator
        samples = problem.levels[0].samples.draw(gen, 50)
        vals = problem.levels[0].value(b_star.reshape(-1), samples)
        assert np.abs(vals).max() <= 1e-20
        assert objective(problem, b_star) == pytest.approx(0.0, abs=1e-10)

    def test_f_star_is_noise_floor(self):
        problem, _ = single_index_problem(SingleIndexConfig(m=4, n=4, sigma=0.3))
        assert problem.metadata.f_star == pytest.approx(0.09)
        assert objective(problem, problem.b_star) == pytest.approx(0.09, abs=1e-12)
        grad = exact_gradient(problem, problem.b_star)
        assert np.abs(grad).max() <= 1e-10  # target is stationary

    def test_stochastic_gradient_fd_on_fixed_sample(self):
        problem, ball = single_index_problem(SingleIndexConfig(m=4, n=3, sigma=0.1))
        level = problem.levels[0]
        gen = RandomSource(2).split(3).generator
        sample = level.samples.draw(gen, 1)
        b = ball.project(gen.standard_normal((4, 3))).reshape(-1)
        grad = level.jacobian(b, sample).reshape(-1)
        fd = finite_difference_gradient(
            lambda p: float(level.value(p.reshape(-1), sample)[0, 0]), b
        ).reshape(-1)
        assert relative_error(grad, fd) <= 1e-5

    def test_exact_oracle_matches_monte_carlo(self):
        problem, ball = single_index_problem(SingleIndexConfig(m=3, n=3, sigma=0.2))
        level = problem.levels[0]
        gen = RandomSource(3).split(4).generator
        b = ball.project(gen.standard_normal((3, 3)))
        flat = b.reshape(-1)
        samples = level.samples.draw(gen, 200_000)
        vals = level.value(flat, samples)[:, 0]
        grads = level.jacobian(flat, samples)[:, :, 0]
        want_val = level.exact_value(flat)[0]
        se = vals.std() / np.sqrt(len(vals))
        assert abs(vals.mean() - want_val) <= 5 * se
        want_grad = level.exact_jacobian(flat).reshape(-1)
        grad_se = grads.std(axis=0) / np.sqrt(len(vals))
        assert np.all(np.abs(grads.mean(axis=0) - want_grad) <= 5 * grad_se + 1e-12)

    def test_exact_gradient_matches_finite_differences(self):
        problem, ball = single_index_problem(SingleIndexConfig(m=4, n=4, sigma=0.1))
        gen = np.random.default_rng(9)
        for _ in range(5):
            b = ball.project(gen.standard_normal((4, 4)))
            fd = finite_difference_gradient(lambda p: objective(problem, p), b)
            assert relative_error(exact_gradient(problem, b), fd) <= 1e-5

    def test_rectangular_identity_generation(self):
        problem, _ = single_index_problem(SingleIndexConfig(m=5, n=3, sigma=0.0))
        gen = RandomSource(4).split(5).generator
        a, _ = problem.levels[0].samples.draw(gen, 1)
        assert a[0].shape == (5, 3)


class TestQuadraticDistanceToy:
    def test_f_star_from_projection(self):
        fset = Simplex(2)
        problem = quadratic_distance_problem(np.array([0.2, 0.4]), fset, noise=0.0)
        assert problem.metadata.f_star == pytest.approx(0.08)
        assert problem.metadata.strong_convexity == 2.0

    def test_noise_is_unbiased(self):
        fset = Simplex(3)
        problem = quadratic_distance_problem(np.array([1.0, 0.0, -1.0]), fset, noise=0.2)
        level = problem.levels[0]
        gen = RandomSource(5).split(6).generator
        samples = level.samples.draw(gen, 50_000)
        x = np.array([0.3, 0.3, 0.4])
        vals = level.value(x, samples)[:, 0]
        want = level.exact_value(x)[0]
        assert abs(vals.mean() - want) <= 5 * vals.std() / np.sqrt(len(vals))


# --- sample streams: each batched draw against the per-sample reference loop --


def mean_deviation_direct(data, lam, x):
    """Single-formula evaluation of the (negated) mean-deviation objective."""
    port = data.returns @ np.asarray(x, dtype=np.float64)
    centered = port - port.mean()
    return -float(port.mean()) + lam * np.sqrt(
        float(centered @ centered) / data.periods + SQRT_SHIFT
    )


def single_index_reference(problem, config, gen, count):
    """One generator call per measurement, then one per label noise."""
    eye = np.zeros((config.m, config.n))
    np.fill_diagonal(eye, 1.0)
    a, y = [], []
    for _ in range(count):
        a.append(eye + gen.normal(0.0, np.sqrt(MEASUREMENT_NOISE_VAR), size=eye.shape))
        y.append(float(np.vdot(a[-1], problem.b_star)) ** 2)
        if config.sigma > 0:
            y[-1] += gen.normal(0.0, config.sigma)
    return np.array(a), np.array(y)


def quadratic_distance_reference(d, noise, gen, count):
    if noise == 0:
        return np.zeros(count), np.zeros((count, d))
    pairs = [(gen.normal(0.0, noise), gen.normal(0.0, noise, size=d)) for _ in range(count)]
    return np.array([p[0] for p in pairs]), np.array([p[1] for p in pairs])


def two_level_tracking_reference(d, p, gen, count, value_noise=0.5, jac_noise=0.5):
    samples = [
        (
            gen.normal(0.0, value_noise, size=p),
            gen.normal(0.0, jac_noise, size=(d, p)),
            gen.normal(0.0, value_noise),
            gen.normal(0.0, jac_noise, size=p),
        )
        for _ in range(count)
    ]
    return tuple(np.array([s[i] for s in samples]) for i in range(4))


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    count=st.integers(1, 12),
    kind=st.sampled_from(["single_index", "quadratic_distance", "two_level_tracking"]),
    noisy=st.booleans(),
)
def test_batched_draws_keep_the_per_sample_stream(seed, count, kind, noisy):
    gen = RandomSource(seed).split(7).generator
    ref_gen = RandomSource(seed).split(7).generator
    if kind == "single_index":
        config = SingleIndexConfig(m=4, n=3, sigma=0.1 if noisy else 0.0)
        problem, _ = single_index_problem(config)
        want = single_index_reference(problem, config, ref_gen, count)
    elif kind == "quadratic_distance":
        noise = 0.05 if noisy else 0.0
        problem = quadratic_distance_problem(np.array([0.2, 0.4, 0.1]), Simplex(3), noise)
        want = quadratic_distance_reference(3, noise, ref_gen, count)
    else:
        problem = two_level_tracking_problem(d=5, p=4)
        want = two_level_tracking_reference(5, 4, ref_gen, count)
    got = problem.levels[0].samples.draw(gen, count)
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert g.shape == w.shape
        assert np.array_equal(g, w)
    # both consumed the same number of draws
    assert gen.random() == ref_gen.random()


@pytest.mark.parametrize("count", [1, 6])
@pytest.mark.parametrize("noise", [0.0, 0.3])
@pytest.mark.parametrize("kind", ["single_index", "quadratic_distance", "two_level_tracking"])
def test_generative_draws_keep_the_bytes_of_the_per_sample_reference(kind, noise, count):
    # bytes, not values: a signed zero must come out as the reference's
    for seed in range(5):
        gen = RandomSource(seed).split(3).generator
        ref_gen = RandomSource(seed).split(3).generator
        if kind == "single_index":
            config = SingleIndexConfig(m=5, n=7, sigma=noise)
            problem, _ = single_index_problem(config)
            want = single_index_reference(problem, config, ref_gen, count)
        elif kind == "quadratic_distance":
            problem = quadratic_distance_problem(np.array([0.2, 0.4, 0.1]), Simplex(3), noise)
            want = quadratic_distance_reference(3, noise, ref_gen, count)
        else:
            problem = two_level_tracking_problem(d=3, p=2, value_noise=noise, jac_noise=noise)
            want = two_level_tracking_reference(3, 2, ref_gen, count, noise, noise)
        got = problem.levels[0].samples.draw(gen, count)
        assert [(g.shape, g.dtype, g.tobytes()) for g in got] == [
            (w.shape, w.dtype, w.tobytes()) for w in want
        ]
        assert gen.random() == ref_gen.random()


GENERATIVE_SPACES = {
    "single_index_square": lambda: single_index_problem(SingleIndexConfig(m=4, n=4))[0],
    "single_index_5x7": lambda: single_index_problem(SingleIndexConfig(m=5, n=7))[0],
    "quadratic_distance": lambda: quadratic_distance_problem(
        np.array([0.2, 0.4, 0.1]), Simplex(3)
    ),
    "two_level_tracking": lambda: two_level_tracking_problem(d=5, p=4),
}


@pytest.mark.parametrize("name", sorted(GENERATIVE_SPACES))
@pytest.mark.parametrize("b", [4, 9])
def test_generative_batches_drawn_in_parts_equal_one_draw(name, b):
    # the estimators draw a generative batch one slice at a time from its
    # level's generator, which must give the samples of one whole draw
    problem = GENERATIVE_SPACES[name]()
    for i, level in enumerate(problem.levels, start=1):
        gen = RandomSource(11).split(i).generator
        whole = level.samples.draw(gen, b)
        parts_gen = RandomSource(11).split(i).generator
        parts = [level.samples.draw(parts_gen, n) for n in (1, 2, b - 3)]
        assert len(whole) == len(parts[0])
        for w, *ps in zip(whole, *parts):
            got = np.concatenate(ps)
            assert got.shape == w.shape
            assert got.tobytes() == w.tobytes()
        # both consumed the same number of draws
        assert gen.random() == parts_gen.random()


def test_portfolio_data_validation():
    with pytest.raises(ValueError):
        PortfolioData(np.empty((0, 3)))
    with pytest.raises(ValueError):
        PortfolioData(np.array([[np.nan, 1.0]]))
