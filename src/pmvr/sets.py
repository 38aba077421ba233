"""Closed convex feasible sets: simplex, box, nuclear-norm ball.

Each set exposes the four operations the solvers and metrics need:

* ``lmo(d)``       -- a minimizer of <x, d> over the set,
* ``project(p)``   -- the Euclidean-nearest feasible point,
* ``contains(p)``  -- membership up to a tolerance,
* ``diameter``     -- max pairwise Euclidean/Frobenius distance.

The nuclear-ball LMO needs only the top singular pair, computed here by one
dense eigensolve of the smaller Gram matrix; its projection needs a full
SVD, which is acceptable because projection sits on the metric path, not
the solver's hot path.
"""

from __future__ import annotations

import numpy as np

from .core import ShapeMismatchError


def project_simplex(p, total=1.0):
    """Euclidean projection onto {x >= 0, sum(x) = total} by sort-and-threshold."""
    p = np.asarray(p, dtype=np.float64)
    d = p.size
    u = np.sort(p)[::-1]
    css = np.cumsum(u) - total
    ks = np.arange(1, d + 1)
    cond = u - css / ks > 0
    rho = np.nonzero(cond)[0][-1]
    theta = css[rho] / (rho + 1.0)
    return np.maximum(p - theta, 0.0)


def top_singular_pair(matrix):
    """Dominant singular triple (sigma1, u1, v1) of a nonzero matrix.

    One dense symmetric eigensolve of the Gram matrix of the smaller side:
    v1 is its top eigenvector, u1 = M v1 / ||M v1|| and sigma1 = ||M v1||.
    The matrix is scaled by its largest entry first, so the Gram matrix
    neither overflows nor underflows at any finite scale. LAPACK either
    converges or raises ``numpy.linalg.LinAlgError``.
    """
    m = np.asarray(matrix, dtype=np.float64)
    if m.ndim != 2:
        raise ShapeMismatchError(f"expected a 2-D matrix, got shape {m.shape}")
    scale = np.abs(m).max(initial=0.0)
    if scale == 0.0:
        raise ValueError("top_singular_pair is undefined for the zero matrix")

    transposed = m.shape[0] < m.shape[1]
    a = (m.T if transposed else m) / scale  # fewer columns: the smaller Gram
    _, vecs = np.linalg.eigh(a.T @ a)  # eigenvalues ascending
    v = vecs[:, -1]
    av = a @ v
    sigma = np.linalg.norm(av)
    u = av / sigma
    if transposed:
        u, v = v, u
    return float(sigma * scale), u, v


class FeasibleSet:
    """Common interface; concrete sets fill in the four operations."""

    diameter = None

    def _check_shape(self, p):
        p = np.asarray(p, dtype=np.float64)
        if p.shape != self.shape:
            raise ShapeMismatchError(
                f"point shape {p.shape} does not match set shape {self.shape}"
            )
        return p

    def lmo(self, direction):
        raise NotImplementedError

    def project(self, point):
        raise NotImplementedError

    def contains(self, point, tol=1e-9):
        raise NotImplementedError


class Simplex(FeasibleSet):
    """Probability simplex {x >= 0, sum(x) = 1} in R^d."""

    def __init__(self, d):
        if d < 1:
            raise ValueError("simplex dimension must be >= 1")
        self.d = int(d)
        self.shape = (self.d,)
        self.diameter = np.sqrt(2.0) if d > 1 else 0.0

    def lmo(self, direction):
        # vertex at the minimal coordinate; argmin breaks ties to the lowest index
        d = self._check_shape(direction)
        out = np.zeros(self.d)
        out[int(np.argmin(d))] = 1.0
        return out

    def project(self, point):
        return project_simplex(self._check_shape(point))

    def contains(self, point, tol=1e-9):
        p = self._check_shape(point)
        return bool(abs(p.sum() - 1.0) <= tol and p.min() >= -tol)


class Box(FeasibleSet):
    """Axis-aligned box {lower <= x <= upper}."""

    def __init__(self, lower, upper):
        self.lower = np.asarray(lower, dtype=np.float64)
        self.upper = np.asarray(upper, dtype=np.float64)
        if self.lower.shape != self.upper.shape:
            raise ShapeMismatchError("lower and upper bounds must share a shape")
        if np.any(self.lower > self.upper):
            raise ValueError("box requires lower <= upper coordinatewise")
        self.shape = self.lower.shape
        self.diameter = float(np.linalg.norm(self.upper - self.lower))

    def lmo(self, direction):
        d = self._check_shape(direction)
        return np.where(d > 0, self.lower, self.upper)

    def project(self, point):
        return np.clip(self._check_shape(point), self.lower, self.upper)

    def contains(self, point, tol=1e-9):
        p = self._check_shape(point)
        return bool(np.all(p >= self.lower - tol) and np.all(p <= self.upper + tol))


class NuclearNormBall(FeasibleSet):
    """Matrices in R^{m x n} with nuclear norm at most ``radius``."""

    def __init__(self, m, n, radius):
        if m < 1 or n < 1:
            raise ValueError("matrix dimensions must be >= 1")
        if radius <= 0:
            raise ValueError("radius must be positive")
        self.m, self.n = int(m), int(n)
        self.radius = float(radius)
        self.shape = (self.m, self.n)
        self.diameter = 2.0 * self.radius

    def lmo(self, direction):
        d = self._check_shape(direction)
        if not np.any(d):
            # every feasible point is optimal against the zero direction
            return np.zeros(self.shape)
        _, u, v = top_singular_pair(d)
        return -self.radius * np.outer(u, v)

    def project(self, point):
        p = self._check_shape(point)
        u, sig, vt = np.linalg.svd(p, full_matrices=False)
        if sig.sum() <= self.radius:
            return p
        # singular values are nonnegative and sorted, so the ball projection
        # lands on the boundary face {sum = radius}
        sig_proj = project_simplex(sig, total=self.radius)
        return (u * sig_proj) @ vt

    def contains(self, point, tol=1e-9):
        p = self._check_shape(point)
        sig = np.linalg.svd(p, compute_uv=False)
        return bool(sig.sum() <= self.radius + tol)
