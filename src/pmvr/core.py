"""Dense vector/matrix primitives shared by every other module.

Points are plain float64 numpy arrays: 1-D for vectors, 2-D (row-major) for
matrix-valued decision variables. Solvers treat both uniformly; feasible
sets are the only code that cares about the 2-D shape.
"""

from __future__ import annotations

import operator

import numpy as np


class ShapeMismatchError(ValueError):
    pass


def _count(value, what):
    """``value`` as an int >= 1, else ValueError ``<what> must be an integer
    >= 1``; ``operator.index`` takes Python and numpy integers, and a bool,
    which it would take as 0 or 1, is refused."""
    try:
        n = 0 if isinstance(value, bool) else operator.index(value)
    except TypeError:
        n = 0
    if n < 1:
        raise ValueError(f"{what} must be an integer >= 1, got {value!r}")
    return n


def inner(x, y):
    """Euclidean inner product; the Frobenius inner product for matrices."""
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if x.shape != y.shape:
        raise ShapeMismatchError(f"shape mismatch: {x.shape} vs {y.shape}")
    return float(np.vdot(x, y))


def matmul_chain(jacobians):
    """Left-to-right product J_1 @ J_2 @ ... @ J_n of 2-D matrices.

    A factor of any other rank raises ShapeMismatchError, and a dimension
    mismatch between factor i and factor i+1 is reported with the 1-based
    position of the offending factor.
    """
    if len(jacobians) == 0:
        raise ValueError("matmul_chain requires at least one factor")
    factors = [np.asarray(j, dtype=np.float64) for j in jacobians]
    for j in factors:
        if j.ndim != 2:
            raise ShapeMismatchError(f"chain factors must be 2-D, got {j.shape}")
    out = factors[0]
    for i, j in enumerate(factors[1:], start=2):
        if out.shape[1] != j.shape[0]:
            raise ShapeMismatchError(
                f"dimension mismatch at position {i}: "
                f"{out.shape} cannot multiply {j.shape}"
            )
        out = out @ j
    return out

