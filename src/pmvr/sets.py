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
matrix of the smaller side. Below a side of 20 it is one dense eigensolve;
from 20 up it is the top eigenvalue alone and one solve shifted just above
it, checked, with the dense eigensolve as its fallback (``top_singular_pair``).
The projection runs at every metric row and at every step of the projected
baseline. Below a side of 20 it is a full SVD; from 20 up it is one dense
eigensolve of the same Gram matrix, which hands inside points, and
thresholds too small for the Gram matrix's accuracy, back to the SVD
(``NuclearNormBall._nearest``). Both operations scale the matrix and form
its Gram matrix in one helper (``_scaled_gram``). ``contains`` takes a full
SVD at every side.

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
* a projection of an inside point reuses the singular values it already
  has, and any other projection ``sum_i w_i v_i^T`` has ``||x||_* <=
  sum_i ||w_i|| ||v_i||`` from the factors it multiplies;
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
# of eigh, and the projection one eigh of the Gram matrix instead of a full
# SVD. At 16 each pair costs about the same, and below 12 eigh or the SVD is
# faster; from 20, the side of the matrix workloads, the Gram side's path is
# faster (CHANGES.md has the timings, and tools/lmo_crossover.py measures them)
_SHIFTED_SOLVE_SIDE = 20


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


class _ZeroMatrixError(ValueError):
    """The zero matrix has no top singular pair. The nuclear-ball LMO
    catches this error to answer the zero direction, and the projection to
    hand the zero point to the SVD, so neither makes a zero test of its own."""


def _scaled_gram(matrix):
    """``(a, a.T @ a, scale, transposed)``: ``a`` is the matrix divided by
    its largest entry ``scale``, so that the Gram matrix neither overflows
    nor underflows, and transposed if it has more columns than rows. A NaN
    or infinite entry raises ValueError, and the zero matrix
    ``_ZeroMatrixError``."""
    m = np.asarray(matrix, dtype=np.float64)
    if m.ndim != 2:
        raise ShapeMismatchError(f"expected a 2-D matrix, got shape {m.shape}")
    # np.abs(m).max() without its copy; max and min propagate a NaN or an infinity
    scale = max(m.max(initial=0.0), -m.min(initial=0.0))
    if not math.isfinite(scale):
        raise ValueError("top_singular_pair is undefined for a matrix with a non-finite entry")
    if scale == 0.0:
        raise _ZeroMatrixError("top_singular_pair is undefined for the zero matrix")
    transposed = m.shape[0] < m.shape[1]
    a = (m.T if transposed else m) / scale
    return a, a.T @ a, scale, transposed


def top_singular_pair(matrix):
    """Dominant singular triple (sigma1, u1, v1) of a nonzero finite matrix.

    v1 is a top eigenvector of the Gram matrix G of the smaller side of the
    scaled matrix (``_scaled_gram``); u1 = M v1 / ||M v1|| and sigma1 =
    ||M v1||. Below a Gram side of 20 (``_SHIFTED_SOLVE_SIDE``) v1 comes from
    one dense symmetric eigensolve (``eigh``). From 20 up it comes from inverse
    iteration: the top eigenvalue lam alone (``eigvalsh``), then one solve
    ``(G - lam (1 + 2**-50) I) y = G e_j``, j the largest diagonal entry of
    G, and v1 = y / ||y||. That v1 is kept only if ``||M v1||**2 >= lam (1 -
    64 k 2**-52)`` on the scaled matrix (k the Gram side); if not, or if the
    solve meets an exact zero pivot, the dense eigensolve runs instead.

    A matrix with a NaN or infinite entry raises ValueError, and so does the
    zero matrix. LAPACK's eigensolvers may still raise
    ``numpy.linalg.LinAlgError`` if they fail to converge.
    """
    a, g, scale, transposed = _scaled_gram(matrix)
    shifted = len(g) >= _SHIFTED_SOLVE_SIDE
    found = _shifted_solve(a, g) if shifted else None
    if found is None:
        # the shifted solve leaves g shifted, so its fallback forms g again
        _, vecs = np.linalg.eigh(a.T @ a if shifted else g)  # eigenvalues ascending
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
    zero pivot or v falls short of the acceptance rule. Shifts g in place."""
    k = len(g)
    lam = np.linalg.eigvalsh(g)[-1]
    # column j of g has the component lam1 v1[j] along the top eigenvector:
    # rarely zero, and caught below when it is
    rhs = g[:, g.diagonal().argmax()].copy()
    g.flat[::k + 1] -= lam * (1.0 + 2.0**-50)
    try:
        y = np.linalg.solve(g, rhs)
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
        try:
            _, u, v = top_singular_pair(self._check_shape(direction))
        except _ZeroMatrixError:
            # every feasible point is optimal against the zero direction
            return np.zeros(self.shape), 0.0
        z = np.multiply.outer(u, v)
        z *= -self.radius
        # ||r u v^T||_* = r ||u|| ||v||. Each entry of z is off by at most
        # 2 _U of its exact value (two roundings), an error matrix of nuclear
        # norm at most sqrt(min(m, n)) times its Frobenius norm
        size = self.radius * math.sqrt((u @ u) * (v @ v))
        slack = 2.0 * _U * math.sqrt(min(self.shape)) * size
        return z, _rounded_up(size + slack, self.m + self.n + 8)

    def _nearest(self, p):
        """Projection of a finite point onto the ball, with its certificate.

        Below a Gram side of 20 (``_SHIFTED_SOLVE_SIDE``) it takes the full
        SVD p = U diag(s) V^T. A point with sum(s) <= radius comes back as
        itself; any other as U diag(s') V^T, where s' = max(s - theta, 0) is
        the projection of s onto the simplex of total radius. From 20 up
        ``_gram_nearest`` runs first, and the SVD only if it hands p back.
        """
        if min(self.shape) >= _SHIFTED_SOLVE_SIDE:
            found = self._gram_nearest(p)
            if found is not None:
                return found
        u, sig, vt = np.linalg.svd(p, full_matrices=False)
        if sig.sum() <= self.radius:
            return p, self._svd_bound(sig)
        # singular values are nonnegative and sorted, so the ball projection
        # lands on the boundary face {sum = radius}
        sig_proj = project_simplex(sig, total=self.radius)
        x = (u * sig_proj) @ vt
        return x, self._factored_bound(
            float(sig_proj @ (np.linalg.norm(u, axis=0) * np.linalg.norm(vt, axis=1))))

    def _gram_nearest(self, p):
        """``_nearest(p)`` from one dense eigensolve of the Gram matrix of the
        scaled matrix a = p / scale (``_scaled_gram``), or None to hand p to
        the full SVD.

        With a^T a = V diag(lam) V^T, s = sqrt(max(lam, 0)) and s' = max(s -
        theta, 0) as on the SVD path, the projection is scale a V_r diag(s'_r
        / s_r) V_r^T over the r columns that s' keeps. p goes to the SVD if
        sum(s) is within the scaled radius, so that an inside point keeps the
        SVD path's bits and bound, and if theta < 2**-12 s_1.

        That guard comes from the accuracy of the Gram matrix. Forming a^T a
        and its backward-stable eigensolve leave each lam_i off by about k
        eps s_1**2 (k the Gram side, eps = 2**-52). So a singular value s
        comes back off by about k eps s_1**2 / s, and a zero one as a
        spurious value up to about sqrt(k eps) s_1. Under the guard every
        spurious value stays below theta for any k < 2**28, so the kept
        columns are the SVD path's. Every kept value exceeds theta, so each
        one, and theta with them, is off by less than k eps s_1**2 / theta.
        The answer therefore agrees with the SVD path's to within about k eps
        s_1**2 / theta <= 2**12 k eps s_1 in every entry, in p's units.

        The certificate is the triangle bound of the factors actually
        multiplied (``_factored_bound``), so it holds whatever their accuracy.
        """
        try:
            a, g, scale, transposed = _scaled_gram(p)
        except _ZeroMatrixError:
            return None
        lam, vecs = np.linalg.eigh(g)  # eigenvalues ascending
        sig = np.sqrt(np.maximum(lam, 0.0))
        total = self.radius / scale
        if sig.sum() <= total:
            return None
        sig_proj = project_simplex(sig, total=total)
        if sig[-1] - sig_proj[-1] < 2.0**-12 * sig[-1]:  # theta below the guard
            return None
        kept = sig_proj > 0.0
        v = vecs[:, kept]
        w = (a @ v) * (sig_proj[kept] / sig[kept] * scale)
        x = v @ w.T if transposed else w @ v.T
        return x, self._factored_bound(
            float(np.linalg.norm(w, axis=0) @ np.linalg.norm(v, axis=0)))

    def _factored_bound(self, size):
        # Certificate of a projection x = sum_i w_i v_i^T formed as one matrix
        # product, from size = sum_i ||w_i|| ||v_i|| of the factors multiplied
        # (w_i = s'_i u_i on the SVD path, the scaled a v_i s'_i / s_i on the
        # Gram path). Before rounding, ||x||_* <= size. Each entry of the
        # product is off by at most (k + 1) _U (k = min(m, n) terms, and the
        # SVD path's rounding of w) times that entry of sum_i |w_i| |v_i|^T,
        # whose Frobenius norm is at most size; the error's nuclear norm is at
        # most sqrt(k) times its Frobenius
        k = min(self.shape)
        slack = (k + 2) * _U * math.sqrt(k) * size
        return _rounded_up(size + slack, self.m + self.n + k + 8)

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
