import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import pmvr.sets
from pmvr.core import ShapeMismatchError, inner
from pmvr.sets import (
    _U,
    Box,
    NuclearNormBall,
    Simplex,
    _rounded_up,
    project_simplex,
    top_singular_pair,
)


def random_nuclear_feasible(gen, ball):
    """A random matrix inside the ball, via random factors and scaled spectrum."""
    u, _, vt = np.linalg.svd(
        gen.standard_normal((ball.m, ball.n)), full_matrices=False
    )
    w = gen.random(min(ball.m, ball.n))
    w = ball.radius * w / w.sum()
    return (u * w) @ vt


class TestSimplex:
    def test_lmo_vertex(self):
        assert np.array_equal(
            Simplex(3).lmo(np.array([3.0, 1.0, 2.0])), np.array([0.0, 1.0, 0.0])
        )

    def test_lmo_tie_lowest_index(self):
        assert np.array_equal(Simplex(2).lmo(np.zeros(2)), np.array([1.0, 0.0]))

    def test_lmo_beats_every_vertex(self):
        gen = np.random.default_rng(0)
        for d in (1, 2, 3, 10, 47, 100):
            fset = Simplex(d)
            for _ in range(5):
                direction = gen.standard_normal(d)
                val = inner(fset.lmo(direction), direction)
                assert val <= direction.min() + 0.0

    def test_projection_already_feasible(self):
        assert np.array_equal(
            Simplex(2).project(np.array([1.0, 0.0])), np.array([1.0, 0.0])
        )

    def test_projection_hand_cases(self):
        # KKT water-filling: threshold -0.2 for the first, 4 for the second
        fset = Simplex(2)
        assert np.allclose(
            fset.project(np.array([0.2, 0.4])), np.array([0.4, 0.6]), atol=1e-15
        )
        assert np.allclose(
            fset.project(np.array([5.0, 1.0])), np.array([1.0, 0.0]), atol=1e-15
        )

    def test_projection_properties(self):
        gen = np.random.default_rng(1)
        fset = Simplex(6)
        for _ in range(50):
            a = gen.normal(0, 3, size=6)
            b = gen.normal(0, 3, size=6)
            pa, pb = fset.project(a), fset.project(b)
            assert np.abs(fset.project(pa) - pa).max() <= 1e-12
            assert np.linalg.norm(pa - pb) <= np.linalg.norm(a - b) + 1e-12
            assert fset.contains(pa, 1e-6)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_projection_refuses_a_non_finite_entry(self, bad):
        with pytest.raises(ValueError, match="non-finite"):
            Simplex(3).project(np.array([0.2, bad, 0.5]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_project_simplex_refuses_a_non_finite_entry(self, bad):
        with pytest.raises(ValueError, match="^cannot project a point with a non-finite "
                           "entry onto the simplex$"):
            project_simplex(np.array([0.2, bad, 0.5]))

    def test_fixed_point(self):
        gen = np.random.default_rng(2)
        fset = Simplex(5)
        for _ in range(20):
            p = gen.random(5)
            p /= p.sum()
            assert np.abs(fset.project(p) - p).max() <= 1e-12

    def test_contains(self):
        fset = Simplex(2)
        assert fset.contains(np.array([0.5, 0.5]), 1e-9)
        assert not fset.contains(np.array([0.6, 0.6]), 1e-9)

    def test_diameter_attained(self):
        fset = Simplex(4)
        e1, e2 = np.eye(4)[0], np.eye(4)[1]
        assert np.linalg.norm(e1 - e2) >= fset.diameter - 1e-9


class TestBox:
    def test_lmo_signs(self):
        box = Box([-10.0, -10.0], [10.0, 10.0])
        assert np.array_equal(
            box.lmo(np.array([1.0, -2.0])), np.array([-10.0, 10.0])
        )

    def test_project_clamps(self):
        box = Box([0.0, 0.0], [1.0, 1.0])
        assert np.array_equal(
            box.project(np.array([-0.5, 2.0])), np.array([0.0, 1.0])
        )

    def test_diameter(self):
        box = Box([0.0, 0.0], [3.0, 4.0])
        assert box.diameter == pytest.approx(5.0)


class TestTopSingularPair:
    def test_diagonal(self):
        sigma, u, v = top_singular_pair(np.diag([3.0, 1.0]))
        assert sigma == pytest.approx(3.0, abs=1e-10)
        assert abs(abs(u[0]) - 1.0) <= 1e-7 and abs(abs(v[0]) - 1.0) <= 1e-7

    def test_rank_one(self):
        a = np.array([2.0, 0.0, 0.0])
        b = np.array([0.0, 1.0])
        sigma, _, _ = top_singular_pair(np.outer(a, b))
        assert sigma == pytest.approx(2.0, abs=1e-10)

    def test_matches_dense_svd(self):
        gen = np.random.default_rng(5)
        for _ in range(20):
            m = gen.standard_normal((20, 15))
            sigma, u, v = top_singular_pair(m)
            ref = np.linalg.svd(m, compute_uv=False)[0]
            assert abs(sigma - ref) / ref <= 1e-6
            assert np.linalg.norm(m @ v - sigma * u) <= 1e-6 * sigma
            assert np.linalg.norm(m.T @ u - sigma * v) <= 1e-6 * sigma

    def test_zero_matrix_rejected(self):
        with pytest.raises(ValueError):
            top_singular_pair(np.zeros((3, 3)))


def test_top_singular_pair_refuses_a_matrix_that_is_not_2d():
    with pytest.raises(ShapeMismatchError, match=r"^expected a 2-D matrix, got shape \(3,\)$"):
        top_singular_pair(np.ones(3))


def test_top_singular_pair_refuses_an_empty_matrix_as_the_zero_matrix():
    for shape in ((0, 3), (3, 0), (0, 0)):
        with pytest.raises(ValueError, match="undefined for the zero matrix"):
            top_singular_pair(np.zeros(shape))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("shape", [(3, 3), (5, 40), (30, 30), (40, 24)])
def test_top_singular_pair_refuses_a_non_finite_entry(shape, bad):
    """A NaN or an infinity raises the same ValueError on both sides of the
    shifted-solve gate, before any LAPACK call can fail or return a NaN."""
    m = np.random.default_rng(3).standard_normal(shape)
    m[0, 1] = bad
    with pytest.raises(ValueError, match="^top_singular_pair is undefined for a matrix "
                                         "with a non-finite entry$"):
        top_singular_pair(m)


class TestNuclearNormBall:
    def test_lmo_diagonal_direction(self):
        ball = NuclearNormBall(2, 2, 1.0)
        got = ball.lmo(np.diag([3.0, 1.0]))
        want = np.array([[-1.0, 0.0], [0.0, 0.0]])  # -e1 e1^T from the full SVD
        assert np.allclose(got, want, atol=1e-7)

    def test_lmo_zero_direction(self):
        ball = NuclearNormBall(3, 2, 1.0)
        assert np.array_equal(ball.lmo(np.zeros((3, 2))), np.zeros((3, 2)))

    def test_lmo_beats_random_feasible_points(self):
        gen = np.random.default_rng(7)
        ball = NuclearNormBall(6, 5, 2.0)
        for _ in range(10):
            direction = gen.standard_normal((6, 5))
            z = ball.lmo(direction)
            assert ball.contains(z, 1e-6)
            for _ in range(10):
                x = random_nuclear_feasible(gen, ball)
                assert inner(z, direction) <= inner(x, direction) + 1e-6

    def test_projection_inside_is_identity(self):
        ball = NuclearNormBall(3, 3, 1.0)
        assert ball.contains(np.zeros((3, 3)), 1e-12)
        x = 0.2 * np.eye(3)
        assert np.array_equal(ball.project(x), x)

    def test_projection_properties(self):
        gen = np.random.default_rng(8)
        ball = NuclearNormBall(4, 3, 1.0)
        for _ in range(25):
            a = gen.standard_normal((4, 3))
            b = gen.standard_normal((4, 3))
            pa, pb = ball.project(a), ball.project(b)
            assert ball.contains(pa, 1e-6)
            assert np.abs(ball.project(pa) - pa).max() <= 1e-12
            assert np.linalg.norm(pa - pb) <= np.linalg.norm(a - b) + 1e-12

    def test_diameter_attained(self):
        ball = NuclearNormBall(3, 3, 1.5)
        e = np.zeros((3, 3))
        e[0, 0] = ball.radius
        assert np.linalg.norm(e - (-e)) >= ball.diameter - 1e-9

    def test_shape_mismatch(self):
        with pytest.raises(ShapeMismatchError):
            NuclearNormBall(3, 2, 1.0).lmo(np.zeros((2, 3)))

    def test_lmo_deterministic_with_source(self):
        ball = NuclearNormBall(5, 5, 1.0)
        gen = np.random.default_rng(9)
        d = gen.standard_normal((5, 5))
        a = ball.lmo(d)
        b = ball.lmo(d)
        assert np.array_equal(a, b)


def spectral_matrix(seed, m, n, rank, tie, scale):
    """An m x n matrix of the given rank with random singular vectors.

    Its top ``tie`` singular values agree to within 1e-15 relative, and the
    whole spectrum is multiplied by ``scale``.
    """
    gen = np.random.default_rng(seed)
    u, _ = np.linalg.qr(gen.standard_normal((m, rank)))
    v, _ = np.linalg.qr(gen.standard_normal((n, rank)))
    sig = np.sort(gen.uniform(0.1, 1.0, rank))[::-1]
    sig[:tie] = sig[0] * (1.0 - 1e-15 * np.arange(tie))
    return (u * (scale * sig)) @ v.T


@st.composite
def spectral_cases(draw, smallest=1, largest=12):
    m, n = draw(st.integers(smallest, largest)), draw(st.integers(smallest, largest))
    rank = draw(st.integers(1, min(m, n)))
    return dict(
        seed=draw(st.integers(0, 2**32 - 1)),
        m=m, n=n, rank=rank,
        tie=draw(st.integers(1, rank)),
        scale=10.0 ** draw(st.integers(-200, 200)),
    )


@settings(max_examples=300, deadline=None)
@given(case=spectral_cases(), radius=st.floats(0.1, 10.0))
def test_nuclear_lmo_attains_radius_times_top_singular_value(case, radius):
    d = spectral_matrix(**case)
    z = NuclearNormBall(case["m"], case["n"], radius).lmo(d)
    sigma1 = np.linalg.svd(d, compute_uv=False)[0]
    assert abs(-inner(z, d) - radius * sigma1) <= 1e-12 * radius * sigma1
    assert np.linalg.svd(z, compute_uv=False).sum() <= radius + 1e-9


@settings(max_examples=300, deadline=None)
@given(case=spectral_cases(24, 80), radius=st.floats(0.1, 10.0))
def test_nuclear_lmo_from_the_shifted_solve_attains_the_top_singular_value(case, radius):
    """From a Gram side of 24 up the LMO meets the same rule as below it,
    and its certificate bounds the atom's nuclear norm, at ranks from 1 to
    full, with top singular values tied to 1e-15, at scales 1e-200 to 1e200."""
    d = spectral_matrix(**case)
    z, bound = NuclearNormBall(case["m"], case["n"], radius)._lmo(d)
    sigma1 = np.linalg.svd(d, compute_uv=False)[0]
    assert abs(-inner(z, d) - radius * sigma1) <= 1e-12 * radius * sigma1
    assert bound >= np.linalg.svd(z, compute_uv=False).sum()


def solve_raising(matrix, rhs):
    raise np.linalg.LinAlgError("Singular matrix")


def solve_orthogonal(matrix, rhs):
    # an eigenvector of the shifted Gram matrix's lowest eigenvalue: a unit
    # vector orthogonal to the top eigenvector
    return np.linalg.eigh(matrix)[1][:, 0]


@pytest.mark.parametrize("shape", [(30, 30), (24, 31)])
@pytest.mark.parametrize("fake", [solve_raising, solve_orthogonal])
def test_a_failed_shifted_solve_falls_back_to_the_reference_bits(monkeypatch, fake, shape):
    """An exact zero pivot, or a solve that misses the top eigenvector, falls
    through to the dense eigensolve: the atom and its certificate are the
    reference's, bit for bit. A Gram side of 24 already takes the solve."""
    calls = []

    def solve(matrix, rhs):
        calls.append(len(matrix))
        return fake(matrix, rhs)

    monkeypatch.setattr(pmvr.sets.np.linalg, "solve", solve)
    ball = NuclearNormBall(*shape, radius=1.5)
    direction = np.random.default_rng(30).standard_normal(shape)
    z, bound = ball._lmo(direction)
    monkeypatch.undo()
    want_z, want_bound = reference_nuclear_lmo(ball, direction)
    assert calls == [min(shape)]
    assert z.tobytes() == want_z.tobytes()
    assert np.float64(bound).tobytes() == np.float64(want_bound).tobytes()


def test_a_start_column_orthogonal_to_the_top_eigenvector_falls_back():
    """Column 0 has the Gram matrix's largest diagonal entry but no part in
    its top eigenvector, which lives on the other 29 columns: the solve
    returns e_0, the acceptance rule refuses it, and the dense eigensolve's
    answer comes back."""
    m = np.zeros((40, 30))
    m[0, 0] = 1.0
    m[1:, 1:] = np.sqrt(0.9 / 39)  # 29 equal columns, each of squared norm 0.9
    sigma, u, v = top_singular_pair(m)
    assert abs(sigma - math.sqrt(29 * 0.9)) <= 1e-14 * sigma
    assert v[0] == 0.0 and u[0] == 0.0
    ball = NuclearNormBall(40, 30, 1.0)
    z, bound = ball._lmo(m)
    want_z, want_bound = reference_nuclear_lmo(ball, m)
    assert z.tobytes() == want_z.tobytes()
    assert np.float64(bound).tobytes() == np.float64(want_bound).tobytes()


def reference_nuclear_lmo(ball, direction):
    """The nuclear-ball LMO and its certificate as first written: the same
    Gram eigensolve, with ``np.abs(m).max()``, ``np.linalg.norm`` and
    ``-r * np.outer(u, v)``."""
    m = np.asarray(direction, dtype=np.float64)
    if not np.any(m):
        return np.zeros(ball.shape), 0.0
    scale = np.abs(m).max(initial=0.0)
    transposed = m.shape[0] < m.shape[1]
    a = (m.T if transposed else m) / scale
    _, vecs = np.linalg.eigh(a.T @ a)
    v = vecs[:, -1]
    av = a @ v
    u = av / np.linalg.norm(av)
    if transposed:
        u, v = v, u
    z = -ball.radius * np.outer(u, v)
    size = ball.radius * math.sqrt((u @ u) * (v @ v))
    slack = 2.0 * _U * math.sqrt(min(ball.shape)) * size
    return z, _rounded_up(size + slack, ball.m + ball.n + 8)


@pytest.mark.parametrize("shape", [
    (20, 20), (7, 5), (5, 7), (200, 3), (3, 200), (1, 9), (23, 40), (40, 23),
])
@pytest.mark.parametrize("scale", [1e-300, 1e-150, 1e-20, 1.0, 1e20, 1e150, 1e300])
def test_nuclear_lmo_keeps_the_bits_of_its_reference(shape, scale):
    """Atom and certificate equal the reference formula's bit for bit, at
    entry scales from 1e-300 to 1e300, with signed zeros among the entries,
    for the negated direction, the same one in Fortran order, and a
    direction of signed zeros only."""
    gen = np.random.default_rng(shape[0] * 1000 + shape[1])
    ball = NuclearNormBall(*shape, radius=gen.uniform(0.5, 3.0))
    d = gen.standard_normal(shape) * scale
    zeros = gen.random(shape)
    d[zeros < 0.1] = -0.0
    d[zeros > 0.9] = 0.0
    signed_zeros = np.where(gen.random(shape) < 0.5, -0.0, 0.0)
    for direction in (d, -d, d.T.copy().T, signed_zeros):
        z, bound = ball._lmo(direction)
        want_z, want_bound = reference_nuclear_lmo(ball, direction)
        assert z.shape == want_z.shape and z.tobytes() == want_z.tobytes()
        assert np.float64(bound).tobytes() == np.float64(want_bound).tobytes()


finite = st.floats(-1e6, 1e6, allow_nan=False)


@settings(max_examples=200, deadline=None)
@given(direction=st.lists(finite, min_size=1, max_size=6))
def test_simplex_lmo_beats_every_vertex(direction):
    d = np.array(direction)
    z = Simplex(d.size).lmo(d)
    assert Simplex(d.size).contains(z, 0.0)
    for vertex in np.eye(d.size):
        assert inner(z, d) <= inner(vertex, d)


@settings(max_examples=200, deadline=None)
@given(
    rows=st.lists(
        st.tuples(finite, st.floats(0.0, 1e6), finite), min_size=1, max_size=6
    )
)
def test_box_lmo_beats_every_vertex(rows):
    lower = np.array([lo for lo, _, _ in rows])
    upper = lower + np.array([width for _, width, _ in rows])
    d = np.array([c for _, _, c in rows])
    box = Box(lower, upper)
    z = box.lmo(d)
    assert box.contains(z, 0.0)
    for corner in itertools.product(*zip(lower, upper)):
        corner = np.array(corner)
        assert inner(z, d) <= inner(corner, d) + 1e-12 * np.abs(corner * d).sum()


# --- projections: idempotent and non-expansive ------------------------------

def check_projection(fset, a, b, tol):
    """P(P(a)) = P(a) and ||P(a) - P(b)|| <= ||a - b||, up to ``tol``."""
    pa, pb = fset.project(a), fset.project(b)
    assert fset.contains(pa, tol)
    assert np.abs(fset.project(pa) - pa).max() <= tol
    assert np.linalg.norm(pa - pb) <= np.linalg.norm(a - b) + tol


@st.composite
def point_pairs(draw, shape):
    """Two points of the given shape from one seed, at a common scale."""
    gen = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    scale = 10.0 ** draw(st.integers(-3, 3))
    return scale * gen.standard_normal(shape), scale * gen.standard_normal(shape), scale


@settings(max_examples=200, deadline=None)
@given(data=st.data(), d=st.integers(1, 8))
def test_simplex_projection_is_idempotent_and_nonexpansive(data, d):
    a, b, scale = data.draw(point_pairs((d,)))
    check_projection(Simplex(d), a, b, 1e-12 * (1.0 + scale))


@settings(max_examples=200, deadline=None)
@given(data=st.data(), d=st.integers(1, 8))
def test_box_projection_is_idempotent_and_nonexpansive(data, d):
    lower, width, _ = data.draw(point_pairs((d,)))
    a, b, scale = data.draw(point_pairs((d,)))
    box = Box(lower, lower + np.abs(width))
    check_projection(box, a, b, 1e-12 * (1.0 + scale))


@settings(max_examples=150, deadline=None)
@given(
    data=st.data(),
    m=st.integers(1, 6),
    n=st.integers(1, 6),
    radius=st.floats(0.1, 10.0),
)
def test_nuclear_projection_is_idempotent_and_nonexpansive(data, m, n, radius):
    a, b, scale = data.draw(point_pairs((m, n)))
    check_projection(NuclearNormBall(m, n, radius), a, b, 1e-12 * (radius + scale))


# --- feasibility certificates --------------------------------------------


def nuclear_norm(x):
    return np.linalg.svd(x, compute_uv=False).sum()


@settings(max_examples=150, deadline=None)
@given(
    data=st.data(),
    m=st.integers(1, 9),
    n=st.integers(1, 9),
    radius=st.floats(1e-3, 1e3),
    eta=st.floats(0.0, 1.0),
)
def test_certificates_bound_the_nuclear_norm(data, m, n, radius, eta):
    ball = NuclearNormBall(m, n, radius)
    gen = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    scale = radius * 10.0 ** data.draw(st.floats(-1.0, 1.0))
    x, x_bound = ball._project(scale * gen.standard_normal((m, n)))
    z, z_bound = ball._lmo(gen.standard_normal((m, n)))
    assert x_bound >= nuclear_norm(x)
    assert z_bound >= nuclear_norm(z)
    assert ball._bound(x) >= nuclear_norm(x)
    step = x + eta * (z - x)
    assert ball._combine(x_bound, z_bound, eta) >= nuclear_norm(step)
    mix = (1.0 - eta) * x + eta * z
    assert ball._combine(x_bound, z_bound, eta) >= nuclear_norm(mix)
    # an admitted point is feasible up to the tolerance, and a NaN is refused
    assert ball._admits(z, z_bound, 1e-9)
    assert not ball._admits(z, float("nan"), 1e-9)


def test_public_operations_are_the_certified_ones_without_the_certificate():
    gen = np.random.default_rng(5)
    ball = NuclearNormBall(4, 7, 2.0)
    d = gen.standard_normal((4, 7))
    assert np.array_equal(ball.lmo(d), ball._lmo(d)[0])
    for scale in (0.01, 10.0):  # inside the ball, and projected onto its boundary
        p = scale * gen.standard_normal((4, 7))
        assert np.array_equal(ball.project(p), ball._project(p)[0])
    assert ball._lmo(np.zeros((4, 7)))[1] == 0.0


@pytest.mark.parametrize("build, args, message", [
    (Box, ([np.nan, 0.0], [1.0, 1.0]), "^box bounds must be finite$"),
    (Box, ([0.0, 0.0], [np.inf, 1.0]), "^box bounds must be finite$"),
    (Box, ([-np.inf, 0.0], [1.0, 1.0]), "^box bounds must be finite$"),
    (Box, ([0.0, 0.0], [1.0]), "^lower and upper bounds must share a shape$"),
    (Box, ([0.0, 2.0], [1.0, 1.0]), "^box requires lower <= upper coordinatewise$"),
    (NuclearNormBall, (2, 2, np.nan), "^radius must be positive and finite"),
    (NuclearNormBall, (2, 2, np.inf), "^radius must be positive and finite"),
    (NuclearNormBall, (2.5, 2, 1.0), "^matrix dimension m must be an integer >= 1"),
    (NuclearNormBall, (2, "2", 1.0), "^matrix dimension n must be an integer >= 1"),
    (Simplex, (2.5,), "^simplex dimension must be an integer >= 1"),
    (Simplex, (3.0,), "^simplex dimension must be an integer >= 1"),
], ids=lambda v: v.__name__ if isinstance(v, type) else repr(v) if isinstance(v, tuple) else "")
def test_a_set_refuses_a_constructor_argument_it_cannot_hold(build, args, message):
    """A NaN bound would make the box's diameter NaN and every start point
    infeasible, an infinite one its LMO vertices infinite, and Simplex(2.5)
    would silently build a 2-simplex."""
    with pytest.raises(ValueError, match=message):
        build(*args)


def test_sets_take_numpy_integer_dimensions():
    assert Simplex(np.int64(3)).shape == (3,)
    assert NuclearNormBall(np.int32(2), np.uint8(3), 1.0).shape == (2, 3)


NON_FINITE_CASES = {
    "Simplex": (Simplex(3), np.array([0.2, 0.3, 0.5])),
    "Box": (Box([0.0, 0.0], [1.0, 1.0]), np.array([0.5, 0.5])),
    "NuclearNormBall": (NuclearNormBall(2, 2, 1.0), np.full((2, 2), 0.1)),
}


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("name", sorted(NON_FINITE_CASES))
def test_every_projection_refuses_a_non_finite_entry_naming_the_set(name, bad):
    """``project`` and the solvers' ``_project`` raise the same ValueError,
    which names the set, for a NaN or an infinity in any set."""
    fset, point = NON_FINITE_CASES[name]
    point = point.copy()
    point.flat[1] = bad
    for project in (fset.project, fset._project):
        with pytest.raises(ValueError, match=f"non-finite entry onto {name}$"):
            project(point)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("name", sorted(NON_FINITE_CASES))
def test_a_non_finite_point_is_not_contained_and_a_non_finite_direction_has_no_lmo(
        name, bad, capfd):
    """``contains`` is False for a point with a NaN or an infinity on every
    set (the nuclear ball tests it before its SVD, which LAPACK cannot run),
    and ``lmo`` raises a ValueError naming the set, as ``project`` does."""
    fset, point = NON_FINITE_CASES[name]
    point = point.copy()
    point.flat[1] = bad
    assert fset.contains(point) is False
    with pytest.raises(ValueError, match=f"non-finite entry over {name}$"):
        fset.lmo(point)
    assert capfd.readouterr().err == ""


def test_sets_without_a_certificate_admit_by_contains():
    for fset, inside, outside in (
        (Simplex(3), np.array([0.2, 0.3, 0.5]), np.array([0.6, 0.6, 0.0])),
        (Box(np.zeros(2), np.ones(2)), np.array([0.5, 1.0]), np.array([1.5, 0.0])),
    ):
        assert fset._bound(inside) is None
        assert fset._lmo(-inside)[1] is None and fset._project(outside)[1] is None
        assert fset._combine(None, None, 0.5) is None
        assert fset._admits(inside, None, 1e-9)
        assert not fset._admits(outside, None, 1e-9)


@settings(max_examples=200, deadline=None)
@given(
    data=st.data(),
    m=st.integers(1, 9),
    n=st.integers(1, 9),
    eta=st.floats(0.0, 1.0),
)
def test_combination_bound_covers_the_rounding_of_the_step(data, m, n, eta):
    # nonnegative diagonal x and z: the nuclear norm of any combination is the
    # sum of its diagonal, and the triangle bound is tight, so only the slack
    # covers the rounding of the combination itself
    k = min(m, n)
    entries = st.lists(st.floats(0.0, 1e3), min_size=k, max_size=k)
    a, b = np.array(data.draw(entries)), np.array(data.draw(entries))
    x, z = np.zeros((m, n)), np.zeros((m, n))
    x[range(k), range(k)], z[range(k), range(k)] = a, b
    # the exact nuclear norms, rounded up
    x_bound = math.nextafter(math.fsum(a), math.inf)
    z_bound = math.nextafter(math.fsum(b), math.inf)
    bound = NuclearNormBall(m, n, 1.0)._combine(x_bound, z_bound, eta)
    for step in (x + eta * (z - x), (1.0 - eta) * x + eta * z):
        assert bound >= math.fsum(np.abs(np.diagonal(step)))


@pytest.mark.parametrize("x_bound, z_bound, eta", [
    (0.0, 1.0, 1.0), (1e-300, 1.0, 0.5), (0.0, 3.0, 0.25), (2.0, 1.0, 0.75), (1.0, 1.0, -0.5),
])
def test_combination_bound_keeps_its_worst_case_slack_at_200x200(x_bound, z_bound, eta):
    # the bound's own comment, term by term: the triangle bound plus 4 U
    # sqrt(min(m, n)) roundings of each point's share. At 200 x 200 that is
    # about 56.6 U, more than _rounded_up's margin of 44 U, so dropping either
    # share of the slack falls below it
    slack = 4.0 * _U * math.sqrt(200) * ((1.0 + abs(eta)) * x_bound + abs(eta) * z_bound)
    worst = abs(1.0 - eta) * x_bound + abs(eta) * z_bound + slack
    assert NuclearNormBall(200, 200, 1.0)._combine(x_bound, z_bound, eta) >= worst
