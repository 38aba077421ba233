"""Dense vector/matrix primitives shared by every other module.

Points are plain float64 numpy arrays: 1-D for vectors, 2-D (row-major) for
matrix-valued decision variables. Solvers treat both uniformly through the
elementwise operations here; feasible sets are the only code that cares
about the 2-D shape.
"""

from __future__ import annotations

import numpy as np

from .rng import generator_for


class ShapeMismatchError(ValueError):
    pass


def check_same_shape(x, y):
    if x.shape != y.shape:
        raise ShapeMismatchError(f"shape mismatch: {x.shape} vs {y.shape}")


def axpy(a, x, y):
    """Return a*x + y elementwise. Shapes must match."""
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    check_same_shape(x, y)
    return a * x + y


def inner(x, y):
    """Euclidean inner product; the Frobenius inner product for matrices."""
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    check_same_shape(x, y)
    return float(np.vdot(x, y))


def matmul_chain(jacobians):
    """Left-to-right product J_1 @ J_2 @ ... @ J_n of 2-D matrices.

    A dimension mismatch between factor i and factor i+1 is reported with
    the 1-based position of the offending factor.
    """
    if len(jacobians) == 0:
        raise ValueError("matmul_chain requires at least one factor")
    factors = [np.asarray(j, dtype=np.float64) for j in jacobians]
    for j in factors:
        if j.ndim != 2:
            raise ShapeMismatchError(f"chain factors must be 2-D, got shape {j.shape}")
    out = factors[0]
    for i, j in enumerate(factors[1:], start=2):
        if out.shape[1] != j.shape[0]:
            raise ShapeMismatchError(
                f"dimension mismatch at position {i}: "
                f"{out.shape} cannot multiply {j.shape}"
            )
        out = out @ j
    return out


def gaussian_sample(rng, mean, variance, shape):
    """I.i.d. normal entries, deterministic given the source's (seed, stream).

    variance == 0 yields the constant point of value ``mean``.
    """
    if variance < 0:
        raise ValueError(f"variance must be non-negative, got {variance}")
    gen = generator_for(rng)
    if np.isscalar(shape):
        shape = (int(shape),)
    if variance == 0:
        return np.full(shape, float(mean))
    return gen.normal(loc=mean, scale=np.sqrt(variance), size=shape)
