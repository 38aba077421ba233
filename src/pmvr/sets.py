"""Closed convex feasible sets: simplex, box, nuclear-norm ball.

Each set exposes the three operations the solvers and metrics need:

* ``lmo(d)``       -- a minimizer of <x, d> over the set,
* ``project(p)``   -- the Euclidean-nearest feasible point,
* ``contains(p)``  -- membership up to a tolerance,

and its ``diameter``, the max pairwise Euclidean/Frobenius distance, which
neither reads: the tests bound the subsolver's certificate with it.

On every set, ``lmo`` and ``project`` raise a ValueError naming the set for
an argument with a NaN or infinite entry, and ``contains`` returns False for
such a point.

The nuclear-ball LMO needs only the top singular pair, taken from the Gram
matrix of the smaller side. Below a side of 24 it is one dense eigensolve;
from 24 up it is the top eigenvalue alone and one solve shifted just above
it, checked, with the dense eigensolve as its fallback (``top_singular_pair``).
Its projection and its ``contains`` need a full SVD; the projection runs at
every metric row and at every step of the projected baseline.

Certified feasibility. The solvers do not run ``contains`` on every iterate.
Beside each point they carry a certificate, and they ask ``_admits`` instead.
The private hooks ``_bound`` (a point checked in full), ``_lmo`` and
``_project`` (a point with its certificate: the base class checks the
point, and each set's ``_nearest`` projects it) and ``_combine`` (the
certificate of a convex combination) produce it. The public ``lmo`` checks
its direction and delegates to ``_lmo``, which the solvers call directly
on directions they have checked themselves. Simplex and box carry None,
from the base-class defaults and their own ``_lmo``, and admit by
``contains``, since theirs is O(d). The nuclear ball carries an upper
bound B on the nuclear norm:

* a full SVD gives it for a start point or a subsolver anchor;
* an LMO atom ``-r u v^T`` has ``||z||_* <= r ||u|| ||v||``, an O(m + n)
  number from the atom's own factors;
* a projection reuses the singular values it already has;
* a combination ``(1 - eta) x + eta z`` has
  ``B <= |1 - eta| B_x + |eta| B_z``, plus the nuclear norm of the
  combination's rounding error.

Every bound is rounded up, so B is never below the nuclear norm of the
point the solver holds. A step is admitted when ``B <= radius + tol``, so a
NaN bound fails. The solvers still run the full ``contains`` at every
metric row.
"""

from __future__ import annotations

import math

import numpy as np

from .core import ShapeMismatchError, _count


# unit roundoff of float64: every operation is exact up to a factor 1 + d, |d| <= _U
_U = np.finfo(np.float64).eps / 2
# the smallest normal float64. A rounding into the subnormal range is exact
# only up to an absolute 2**-1075, which no factor 1 + d covers; fewer than
# 2**52 such errors, however amplified by the slack terms' sums, stay below it
_TINY = np.finfo(np.float64).tiny
# the Gram side from which top_singular_pair takes one shifted solve instead
# of eigh: below it eigh is as fast or faster (CHANGES.md has the timings)
_SHIFTED_SOLVE_SIDE = 24


def _rounded_up(value, ops):
    """An upper bound on the exact value of a nonnegative expression that was
    evaluated as ``value`` with at most ``ops`` roundings in any term.

    Each term is off by at most a factor (1 + _U)**ops, about 1 + ops*_U. The
    margin 4*(ops + 1)*_U covers that and the rounding of this product, and
    _TINY covers gradual underflow.
    """
    return value * (1.0 + 4.0 * (ops + 1) * _U) + _TINY


def project_simplex(p, total=1.0):
    """Euclidean projection onto {x >= 0, sum(x) = total} by sort-and-threshold;
    a point with a NaN or infinite entry raises ValueError."""
    p = np.asarray(p, dtype=np.float64)
    d = p.size
    u = np.sort(p)[::-1]
    # the sort puts a NaN or +inf first and a -inf last
    if not (math.isfinite(u[0]) and math.isfinite(u[-1])):
        raise ValueError("cannot project a point with a non-finite entry onto the simplex")
    css = np.cumsum(u) - total
    ks = np.arange(1, d + 1)
    cond = u - css / ks > 0
    rho = np.nonzero(cond)[0][-1]
    theta = css[rho] / (rho + 1.0)
    return np.maximum(p - theta, 0.0)


def top_singular_pair(matrix):
    """Dominant singular triple (sigma1, u1, v1) of a nonzero finite matrix.

    v1 is a top eigenvector of the Gram matrix G of the smaller side, scaled
    by the matrix's largest entry first so that G neither overflows nor
    underflows at any finite scale; u1 = M v1 / ||M v1|| and sigma1 =
    ||M v1||. Below a Gram side of 24 (``_SHIFTED_SOLVE_SIDE``) v1 comes from
    one dense symmetric eigensolve (``eigh``). From 24 up it comes from inverse
    iteration: the top eigenvalue lam alone (``eigvalsh``), then one solve
    ``(G - lam (1 + 2**-50) I) y = G e_j``, j the largest diagonal entry of
    G, and v1 = y / ||y||. That v1 is kept only if ``||M v1||**2 >= lam (1 -
    64 k 2**-52)`` on the scaled matrix (k the Gram side); if not, or if the
    solve meets an exact zero pivot, the dense eigensolve runs instead.

    A matrix with a NaN or infinite entry raises ValueError, and so does the
    zero matrix. LAPACK's eigensolvers may still raise
    ``numpy.linalg.LinAlgError`` if they fail to converge.
    """
    m = np.asarray(matrix, dtype=np.float64)
    if m.ndim != 2:
        raise ShapeMismatchError(f"expected a 2-D matrix, got shape {m.shape}")
    # np.abs(m).max() without its copy; max and min propagate a NaN or an infinity
    scale = max(m.max(initial=0.0), -m.min(initial=0.0))
    if not math.isfinite(scale):
        raise ValueError("top_singular_pair is undefined for a matrix with a non-finite entry")
    if scale == 0.0:
        raise ValueError("top_singular_pair is undefined for the zero matrix")

    transposed = m.shape[0] < m.shape[1]
    a = (m.T if transposed else m) / scale  # fewer columns: the smaller Gram
    g = a.T @ a
    found = _shifted_solve(a, g) if len(g) >= _SHIFTED_SOLVE_SIDE else None
    if found is None:
        _, vecs = np.linalg.eigh(g)  # eigenvalues ascending
        v = vecs[:, -1]
        av = a @ v
    else:
        v, av = found
    sigma = math.sqrt(av @ av)
    u = av / sigma
    if transposed:
        u, v = v, u
    return float(sigma * scale), u, v


def _shifted_solve(a, g):
    """``(v, a @ v)`` for a unit top eigenvector v of ``g = a.T @ a`` by one
    step of inverse iteration from the exact top eigenvalue (Parlett, The
    Symmetric Eigenvalue Problem, ch. 4), or None if the solve meets an exact
    zero pivot or v falls short of the acceptance rule."""
    k = len(g)
    lam = np.linalg.eigvalsh(g)[-1]
    shifted = g.copy()
    shifted.flat[::k + 1] -= lam * (1.0 + 2.0**-50)
    try:
        # column j of g has the component lam1 v1[j] along the top
        # eigenvector: rarely zero, and caught below when it is
        y = np.linalg.solve(shifted, g[:, g.diagonal().argmax()])
    except np.linalg.LinAlgError:
        return None
    v = y / math.sqrt(y @ y)
    av = a @ v
    # a NaN fails the comparison
    return (v, av) if av @ av >= lam * (1.0 - 64 * k * 2.0**-52) else None


class FeasibleSet:
    """Common interface; each concrete set defines ``contains``, the
    diameter, ``_lmo`` and ``_nearest`` (``(projection, its certificate)``
    of a finite point of the set's shape)."""

    diameter = None

    def _check_shape(self, p):
        p = np.asarray(p, dtype=np.float64)
        if p.shape != self.shape:
            raise ShapeMismatchError(
                f"point shape {p.shape} does not match set shape {self.shape}"
            )
        return p

    def _finite(self, array, refusal):
        """``array`` of the set's shape; a NaN or infinite entry raises
        ValueError ``cannot <refusal> <set name>``."""
        a = self._check_shape(array)
        if not np.isfinite(a).all():
            raise ValueError(f"cannot {refusal} {type(self).__name__}")
        return a

    def lmo(self, direction):
        # each set's _lmo(d) returns (lmo(d), its certificate) for a checked d
        d = self._finite(direction, "take the LMO of a direction with a non-finite entry over")
        return self._lmo(d)[0]

    def project(self, point):
        return self._project(point)[0]

    # Certificate hooks (see the module docstring). A certificate of None
    # carries nothing, and the point is admitted by ``contains``.

    def _bound(self, point):
        """Certificate of a point that nothing vouches for yet."""
        return None

    def _project(self, point):
        """``(project(point), its certificate)``; every projection passes
        here, and a point with a NaN or infinite entry raises ValueError."""
        return self._nearest(self._finite(point, "project a point with a non-finite entry onto"))

    def _combine(self, bound, atom_bound, eta):
        """Certificate of ``x + eta (z - x)``, or of ``(1 - eta) x + eta z``,
        from those of x and z."""
        return None

    def _admits(self, point, bound, tol):
        """Whether a point with this certificate lies in the set up to tol."""
        return self.contains(point, tol)


class Simplex(FeasibleSet):
    """Probability simplex {x >= 0, sum(x) = 1} in R^d."""

    def __init__(self, d):
        self.d = _count(d, "simplex dimension")
        self.shape = (self.d,)
        self.diameter = np.sqrt(2.0) if self.d > 1 else 0.0

    def _lmo(self, direction):
        # vertex at the minimal coordinate; argmin breaks ties to the lowest index
        d = self._check_shape(direction)
        out = np.zeros(self.d)
        out[d.argmin()] = 1.0
        return out, None

    def _nearest(self, p):
        return project_simplex(p), None

    def contains(self, point, tol=1e-9):
        p = self._check_shape(point)
        return bool(abs(p.sum() - 1.0) <= tol and p.min() >= -tol)


class Box(FeasibleSet):
    """Axis-aligned box {lower <= x <= upper} with finite bounds."""

    def __init__(self, lower, upper):
        self.lower = np.asarray(lower, dtype=np.float64)
        self.upper = np.asarray(upper, dtype=np.float64)
        if self.lower.shape != self.upper.shape:
            raise ShapeMismatchError("lower and upper bounds must share a shape")
        if not (np.isfinite(self.lower).all() and np.isfinite(self.upper).all()):
            raise ValueError("box bounds must be finite")
        if np.any(self.lower > self.upper):
            raise ValueError("box requires lower <= upper coordinatewise")
        self.shape = self.lower.shape
        self.diameter = float(np.linalg.norm(self.upper - self.lower))

    def _lmo(self, direction):
        d = self._check_shape(direction)
        return np.where(d > 0, self.lower, self.upper), None

    def _nearest(self, p):
        return np.clip(p, self.lower, self.upper), None

    def contains(self, point, tol=1e-9):
        p = self._check_shape(point)
        return bool(np.all(p >= self.lower - tol) and np.all(p <= self.upper + tol))


class NuclearNormBall(FeasibleSet):
    """Matrices in R^{m x n} with nuclear norm at most ``radius``."""

    def __init__(self, m, n, radius):
        self.m, self.n = _count(m, "matrix dimension m"), _count(n, "matrix dimension n")
        if not 0.0 < radius < math.inf:
            raise ValueError(f"radius must be positive and finite, got {radius!r}")
        self.radius = float(radius)
        self.shape = (self.m, self.n)
        self.diameter = 2.0 * self.radius

    # LAPACK's SVD fails on a NaN or an infinity, so a point that holds one
    # is refused before it: not contained, and a NaN bound that no
    # ``_admits`` passes

    def contains(self, point, tol=1e-9):
        p = self._check_shape(point)
        return bool(np.isfinite(p).all()
                    and np.linalg.svd(p, compute_uv=False).sum() <= self.radius + tol)

    def _bound(self, point):
        p = self._check_shape(point)
        if not np.isfinite(p).all():
            return math.nan
        return self._svd_bound(np.linalg.svd(p, compute_uv=False))

    def _svd_bound(self, sig):
        # a backward-stable SVD returns each singular value to within a small
        # multiple of max(m, n) roundoffs of sigma_1, so the sum of all
        # min(m, n) of them to within min(m, n) max(m, n) roundoffs of itself
        return _rounded_up(float(sig.sum()), min(self.shape) * max(self.shape))

    def _lmo(self, direction):
        d = self._check_shape(direction)
        if not d.any():
            # every feasible point is optimal against the zero direction
            return np.zeros(self.shape), 0.0
        _, u, v = top_singular_pair(d)
        z = np.multiply.outer(u, v)
        z *= -self.radius
        # ||r u v^T||_* = r ||u|| ||v||. Each entry of z is off by at most
        # 2 _U of its exact value (two roundings), an error matrix of nuclear
        # norm at most sqrt(min(m, n)) times its Frobenius norm
        size = self.radius * math.sqrt((u @ u) * (v @ v))
        slack = 2.0 * _U * math.sqrt(min(self.shape)) * size
        return z, _rounded_up(size + slack, self.m + self.n + 8)

    def _nearest(self, p):
        u, sig, vt = np.linalg.svd(p, full_matrices=False)
        if sig.sum() <= self.radius:
            return p, self._svd_bound(sig)
        # singular values are nonnegative and sorted, so the ball projection
        # lands on the boundary face {sum = radius}
        sig_proj = project_simplex(sig, total=self.radius)
        x = (u * sig_proj) @ vt
        # Before rounding, ||x||_* <= sum_i s_i ||u_i|| ||v_i||. Each entry of
        # the product is off by at most (k + 1) _U (k = min(m, n) terms) times
        # that entry of |u| diag(s) |vt|, whose Frobenius norm is at most that
        # sum; the error's nuclear norm is at most sqrt(k) times its Frobenius
        k = min(self.shape)
        size = float(sig_proj @ (np.linalg.norm(u, axis=0) * np.linalg.norm(vt, axis=1)))
        slack = (k + 2) * _U * math.sqrt(k) * size
        return x, _rounded_up(size + slack, self.m + self.n + k + 8)

    def _combine(self, bound, atom_bound, eta):
        # ||(1 - eta) x + eta z||_* <= |1 - eta| B + |eta| B_z. Each entry of
        # the computed x + eta (z - x), or (1 - eta) x + eta z, is off by at
        # most 4 _U ((1 + |eta|) |x| + |eta| |z|); that error matrix has
        # nuclear norm at most sqrt(min(m, n)) times its Frobenius norm, and
        # a Frobenius norm is at most the nuclear norm
        slack = 4.0 * _U * math.sqrt(min(self.shape)) * (
            (1.0 + abs(eta)) * bound + abs(eta) * atom_bound
        )
        return _rounded_up(abs(1.0 - eta) * bound + abs(eta) * atom_bound + slack, 10)

    def _admits(self, point, bound, tol):
        # a NaN bound fails the comparison, so it is refused
        return bool(bound <= self.radius + tol)
