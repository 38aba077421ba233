import numpy as np
import pytest

from pmvr.core import ShapeMismatchError, inner, matmul_chain
from pmvr.rng import RandomSource


@pytest.mark.parametrize(
    "x, y, want",
    [
        ([1.0, 0.0], [0.0, 1.0], 0.0),
        ([1.0, 2.0], [3.0, 4.0], 11.0),
    ],
)
def test_inner_vectors(x, y, want):
    assert inner(np.array(x), np.array(y)) == want


def test_inner_frobenius():
    # trace of I @ diag(3, 1)
    assert inner(np.eye(2), np.diag([3.0, 1.0])) == 4.0


def test_inner_shape_mismatch():
    with pytest.raises(ShapeMismatchError):
        inner(np.zeros(2), np.zeros(3))


def test_inner_is_squared_norm():
    gen = np.random.default_rng(0)
    x = gen.standard_normal(1000)
    assert inner(x, x) == pytest.approx(np.linalg.norm(x) ** 2, rel=1e-14)


def test_matmul_chain_single_factor():
    assert np.array_equal(matmul_chain([np.eye(3)]), np.eye(3))


def test_matmul_chain_diagonal():
    got = matmul_chain([np.diag([2.0, 2.0]), np.diag([3.0, 3.0])])
    assert np.array_equal(got, np.diag([6.0, 6.0]))


def test_matmul_chain_against_triple_loop():
    gen = np.random.default_rng(3)
    a = gen.standard_normal((2, 3))
    b = gen.standard_normal((3, 1))
    want = np.zeros((2, 1))
    for i in range(2):
        for j in range(1):
            for k in range(3):
                want[i, j] += a[i, k] * b[k, j]
    assert np.allclose(matmul_chain([a, b]), want, atol=1e-15)


def test_matmul_chain_associative():
    gen = np.random.default_rng(4)
    mats = [gen.standard_normal((5, 5)) for _ in range(3)]
    left = matmul_chain([matmul_chain(mats[:2]), mats[2]])
    full = matmul_chain(mats)
    assert np.allclose(left, full, rtol=1e-12)


def test_matmul_chain_reports_position():
    with pytest.raises(ShapeMismatchError, match="position 2"):
        matmul_chain([np.zeros((2, 3)), np.zeros((4, 1))])
    with pytest.raises(ValueError):
        matmul_chain([])


@pytest.mark.parametrize("shape", [(3,), (5, 2, 3)])
def test_matmul_chain_refuses_a_factor_that_is_not_2d(shape):
    with pytest.raises(ShapeMismatchError, match="must be 2-D"):
        matmul_chain([np.zeros((2, 3)), np.zeros(shape)])


def test_substreams_are_independent_and_stable():
    root = RandomSource(42)
    a = root.split(1).generator.standard_normal(5)
    b = root.split(2).generator.standard_normal(5)
    assert not np.allclose(a, b)
    # splitting again reproduces the same stream regardless of consumption
    a2 = RandomSource(42).split(1).generator.standard_normal(5)
    assert np.array_equal(a, a2)


def test_generator_algorithm_pinned():
    # Philox via SeedSequence: a fixed draw guards against silent generator swaps
    got = RandomSource(7).split(3).generator.standard_normal(3)
    want = np.array([-0.20401675943350603, 1.6034236402738993, -0.06626046848310134])
    assert np.allclose(got, want, atol=0, rtol=1e-15)
