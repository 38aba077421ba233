"""Benchmark problems: two risk-averse portfolio objectives and low-rank
matrix recovery, plus small noisy toys used for calibration tests.

Everything is posed as minimization. Portfolio problems treat the dataset
of per-period returns as the sample space (expectation = average over
periods); the matrix recovery problem draws fresh measurement matrices per
sample and uses the analytically known expectation for its exact oracles.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .problems import (
    CompositionalProblem,
    FiniteSamples,
    GenerativeSamples,
    Level,
    ProblemMetadata,
)
from .rng import RandomSource
from .sets import NuclearNormBall

SQRT_SHIFT = 1e-12  # restores smoothness of the deviation objective at zero variance


@dataclass
class PortfolioData:
    """Per-period fractional returns of d assets (rows are periods)."""

    returns: np.ndarray
    names: list = field(default_factory=list)
    report: Optional[object] = None

    def __post_init__(self):
        self.returns = np.asarray(self.returns, dtype=np.float64)
        if self.returns.ndim != 2 or self.returns.size == 0:
            raise ValueError("returns must be a non-empty periods x assets matrix")
        if not np.all(np.isfinite(self.returns)):
            raise ValueError("returns contain non-finite entries")

    @property
    def periods(self):
        return self.returns.shape[0]

    @property
    def d(self):
        return self.returns.shape[1]

    @property
    def rbar(self):
        return self.returns.mean(axis=0)


def synthetic_portfolio_data(d=10, periods=500, data_seed=0):
    """Synthetic returns with dataset-like scale (fractions, not percent)."""
    gen = RandomSource(data_seed).split(0).generator
    mean = gen.normal(0.0005, 0.002, size=d)
    returns = mean + gen.normal(0.0, 0.01, size=(periods, d))
    return PortfolioData(returns=returns)


def mean_variance_problem(data, lam):
    """Two-level mean-variance objective over the simplex.

    Level 1 maps x to (-mean return of x, x); level 2 adds the weighted
    second moment of centered portfolio returns, so the composition equals
    -<rbar, x> + lam * Var(<r, x>).
    """
    if lam < 0:
        raise ValueError("risk weight must be non-negative")
    r = data.returns
    periods, d = r.shape
    rbar = data.rbar
    space = FiniteSamples(periods)

    def f1(x, t):
        return np.concatenate(([-float(r[t] @ x)], x))

    def f1_exact(x):
        return np.concatenate(([-float(rbar @ x)], x))

    def j1(x, t):
        jac = np.zeros((d, d + 1))
        jac[:, 0] = -r[t]
        jac[:, 1:] = np.eye(d)
        return jac

    def j1_exact(x):
        jac = np.zeros((d, d + 1))
        jac[:, 0] = -rbar
        jac[:, 1:] = np.eye(d)
        return jac

    def f2(y, t):
        return np.array([y[0] + lam * (r[t] @ y[1:] + y[0]) ** 2])

    def f2_exact(y):
        e = r @ y[1:] + y[0]
        return np.array([y[0] + lam * float(e @ e) / periods])

    def j2(y, t):
        e = float(r[t] @ y[1:] + y[0])
        jac = np.empty((d + 1, 1))
        jac[0, 0] = 1.0 + 2.0 * lam * e
        jac[1:, 0] = 2.0 * lam * e * r[t]
        return jac

    def j2_exact(y):
        e = r @ y[1:] + y[0]
        jac = np.empty((d + 1, 1))
        jac[0, 0] = 1.0 + 2.0 * lam * float(e.mean())
        jac[1:, 0] = (2.0 * lam / periods) * (r.T @ e)
        return jac

    levels = [
        Level(d, d + 1, f1, j1, f1_exact, j1_exact, samples=space),
        Level(d + 1, 1, f2, j2, f2_exact, j2_exact, samples=space),
    ]
    meta = ProblemMetadata(notes={"lambda": lam, "dataset_periods": periods})
    return CompositionalProblem(levels, metadata=meta, name="mean_variance")


def mean_deviation_problem(data, lam):
    """Three-level mean-deviation objective over the simplex (negated
    maximization): -<rbar, x> + lam * sqrt(Var(<r, x>) + shift).

    Level 1 carries (mean return, x); level 2 carries (mean return,
    variance of centered returns); level 3 combines them under the
    smoothed square root.
    """
    if lam < 0:
        raise ValueError("risk weight must be non-negative")
    r = data.returns
    periods, d = r.shape
    rbar = data.rbar
    space = FiniteSamples(periods)

    def g1(x, t):
        return np.concatenate(([float(r[t] @ x)], x))

    def g1_exact(x):
        return np.concatenate(([float(rbar @ x)], x))

    def jg1(x, t):
        jac = np.zeros((d, d + 1))
        jac[:, 0] = r[t]
        jac[:, 1:] = np.eye(d)
        return jac

    def jg1_exact(x):
        jac = np.zeros((d, d + 1))
        jac[:, 0] = rbar
        jac[:, 1:] = np.eye(d)
        return jac

    def g2(y, t):
        e = float(r[t] @ y[1:] - y[0])
        return np.array([y[0], e * e])

    def g2_exact(y):
        e = r @ y[1:] - y[0]
        return np.array([y[0], float(e @ e) / periods])

    def jg2(y, t):
        e = float(r[t] @ y[1:] - y[0])
        jac = np.zeros((d + 1, 2))
        jac[0, 0] = 1.0
        jac[0, 1] = -2.0 * e
        jac[1:, 1] = 2.0 * e * r[t]
        return jac

    def jg2_exact(y):
        e = r @ y[1:] - y[0]
        jac = np.zeros((d + 1, 2))
        jac[0, 0] = 1.0
        jac[0, 1] = -2.0 * float(e.mean())
        jac[1:, 1] = (2.0 / periods) * (r.T @ e)
        return jac

    # the variance estimate fed to the outer level is a recursive tracker and
    # can transiently undershoot zero; extend the square root linearly (C^1)
    # below the domain so oracle values stay finite there
    def smooth_sqrt(q):
        if q >= 0.0:
            return np.sqrt(q + SQRT_SHIFT)
        return np.sqrt(SQRT_SHIFT) + q / (2.0 * np.sqrt(SQRT_SHIFT))

    def smooth_sqrt_slope(q):
        if q >= 0.0:
            return 1.0 / (2.0 * np.sqrt(q + SQRT_SHIFT))
        return 1.0 / (2.0 * np.sqrt(SQRT_SHIFT))

    def g3_exact(z):
        return np.array([-z[0] + lam * smooth_sqrt(z[1])])

    def g3(z, t):
        return g3_exact(z)

    def jg3_exact(z):
        return np.array([[-1.0], [lam * smooth_sqrt_slope(z[1])]])

    def jg3(z, t):
        return jg3_exact(z)

    levels = [
        Level(d, d + 1, g1, jg1, g1_exact, jg1_exact, samples=space),
        Level(d + 1, 2, g2, jg2, g2_exact, jg2_exact, samples=space),
        Level(2, 1, g3, jg3, g3_exact, jg3_exact, samples=space),
    ]
    meta = ProblemMetadata(
        notes={"lambda": lam, "sqrt_shift": SQRT_SHIFT, "dataset_periods": periods}
    )
    return CompositionalProblem(levels, metadata=meta, name="mean_deviation")


def mean_deviation_direct(data, lam, x):
    """Single-formula evaluation of the (negated) mean-deviation objective."""
    port = data.returns @ np.asarray(x, dtype=np.float64)
    centered = port - port.mean()
    return -float(port.mean()) + lam * np.sqrt(
        float(centered @ centered) / data.periods + SQRT_SHIFT
    )


@dataclass
class SingleIndexConfig:
    """Low-rank recovery setup: B* = v v^T / ||v v^T||_* inside the ball."""

    m: int = 20
    n: int = 20
    s: float = 1.0
    sigma: float = 0.1
    noise_var: float = 0.3
    data_seed: int = 0

    def __post_init__(self):
        if self.m < 2 or self.n < 2:
            raise ValueError("matrix dimensions must be >= 2")
        if self.sigma < 0:
            raise ValueError("label noise must be non-negative")
        if self.s < 1.0:
            raise ValueError("radius below 1 cannot contain the unit-norm target")


def _rect_identity(m, n):
    eye = np.zeros((m, n))
    np.fill_diagonal(eye, 1.0)
    return eye


def single_index_problem(config):
    """Quartic recovery loss E[(y - <A, B>^2)^2] over the nuclear-norm ball.

    Measurements are A = I + E with i.i.d. N(0, noise_var) perturbation and
    y = <A, B*>^2 + N(0, sigma^2). Because <A, B> and <A, B*> are jointly
    Gaussian given (B, B*), the expectation (and its gradient) has a closed
    form in tr(B), ||B||_F^2 and <B, B*>, which the exact oracles use; the
    known optimum is F* = sigma^2 at B = B*.
    """
    m, n, s = config.m, config.n, config.s
    nu = config.noise_var
    sigma = config.sigma
    gen = RandomSource(config.data_seed).split(0).generator
    if m == n:
        v = gen.standard_normal(m)
        b_star = np.outer(v, v) / float(v @ v)
    else:
        u = gen.standard_normal(m)
        w = gen.standard_normal(n)
        b_star = np.outer(u, w) / (np.linalg.norm(u) * np.linalg.norm(w))
    eye = _rect_identity(m, n)
    b_trace = float(np.vdot(eye, b_star))
    b_norm2 = float(np.vdot(b_star, b_star))

    def draw(sample_gen, count):
        out = []
        for _ in range(count):
            a = eye + sample_gen.normal(0.0, np.sqrt(nu), size=(m, n))
            y = float(np.vdot(a, b_star)) ** 2
            if sigma > 0:
                y += sample_gen.normal(0.0, sigma)
            out.append((a, y))
        return out

    space = GenerativeSamples(draw)

    def loss(flat_b, sample):
        a, y = sample
        pred = float(np.vdot(a, flat_b.reshape(m, n)))
        return np.array([(y - pred * pred) ** 2])

    def loss_grad(flat_b, sample):
        a, y = sample
        b = flat_b.reshape(m, n)
        pred = float(np.vdot(a, b))
        g = -4.0 * (y - pred * pred) * pred * a
        return g.reshape(-1, 1)

    def _moments(b):
        a_tr = float(np.vdot(eye, b))
        su2 = nu * float(np.vdot(b, b))
        sw2 = nu * b_norm2
        cov = nu * float(np.vdot(b, b_star))
        return a_tr, b_trace, su2, sw2, cov

    def exact_loss(flat_b):
        a_tr, b_tr, su2, sw2, cov = _moments(flat_b.reshape(m, n))
        e_p2 = b_tr**4 + 6.0 * b_tr**2 * sw2 + 3.0 * sw2**2
        e_q2 = a_tr**4 + 6.0 * a_tr**2 * su2 + 3.0 * su2**2
        e_pq = (
            a_tr**2 * b_tr**2
            + b_tr**2 * su2
            + a_tr**2 * sw2
            + 4.0 * a_tr * b_tr * cov
            + su2 * sw2
            + 2.0 * cov**2
        )
        return np.array([e_p2 - 2.0 * e_pq + e_q2 + sigma**2])

    def exact_grad(flat_b):
        b = flat_b.reshape(m, n)
        a_tr, b_tr, su2, sw2, cov = _moments(b)
        d_q2 = (4.0 * a_tr**3 + 12.0 * a_tr * su2) * eye + 12.0 * nu * (
            a_tr**2 + su2
        ) * b
        d_pq = (
            (2.0 * a_tr * b_tr**2 + 2.0 * a_tr * sw2 + 4.0 * b_tr * cov) * eye
            + 2.0 * nu * (b_tr**2 + sw2) * b
            + 4.0 * nu * (a_tr * b_tr + cov) * b_star
        )
        return (d_q2 - 2.0 * d_pq).reshape(-1, 1)

    level = Level(m * n, 1, loss, loss_grad, exact_loss, exact_grad, samples=space)
    meta = ProblemMetadata(
        f_star=sigma**2,
        notes={"sigma": sigma, "noise_var": nu, "radius": s},
    )
    problem = CompositionalProblem(
        [level], x_shape=(m, n), metadata=meta, name="single_index"
    )
    problem.b_star = b_star
    # generic interior rank-one start: symmetric points (zero, identity) sit at
    # or near stationary symmetry, and on the boundary the gradient aligns with
    # the outward normal, so both would start the solver nearly converged
    start_gen = RandomSource(config.data_seed).split(1).generator
    su = start_gen.standard_normal(m)
    sv = start_gen.standard_normal(n)
    problem.x_start = (
        0.5 * s * np.outer(su, sv) / (np.linalg.norm(su) * np.linalg.norm(sv))
    )
    fset = NuclearNormBall(m, n, s)
    return problem, fset


def quadratic_distance_problem(c, fset, noise=0.05):
    """Strongly convex toy ||x - c||^2 with additive oracle noise.

    The modulus is 2 and the optimum has the closed form F* =
    ||project(c) - c||^2, so stage-wise schedules can be checked against
    exact gaps.
    """
    c = np.asarray(c, dtype=np.float64)
    d = c.size

    def draw(gen, count):
        return [
            (gen.normal(0.0, noise), gen.normal(0.0, noise, size=d))
            for _ in range(count)
        ] if noise > 0 else [(0.0, np.zeros(d))] * count

    def value(x, sample):
        diff = x - c
        return np.array([float(diff @ diff) + sample[0]])

    def value_exact(x):
        diff = x - c
        return np.array([float(diff @ diff)])

    def jac(x, sample):
        return (2.0 * (x - c) + sample[1]).reshape(-1, 1)

    def jac_exact(x):
        return (2.0 * (x - c)).reshape(-1, 1)

    level = Level(d, 1, value, jac, value_exact, jac_exact,
                  samples=GenerativeSamples(draw))
    proj = fset.project(c)
    meta = ProblemMetadata(
        f_star=float((proj - c) @ (proj - c)),
        strong_convexity=2.0,
        notes={"noise": noise},
    )
    return CompositionalProblem([level], metadata=meta, name="quadratic_distance")


def two_level_tracking_problem(d=5, p=4, value_noise=0.5, jac_noise=0.5, data_seed=0):
    """Noisy two-level quadratic F(x) = ||Ax + b||^2 / 2 for estimator studies.

    Both levels add mean-zero Gaussian noise to values and Jacobians, so
    tracker error against the exact gradient is nonzero and the effect of
    the momentum parameter is measurable.
    """
    gen = RandomSource(data_seed).split(0).generator
    a_mat = gen.normal(0.0, 1.0, size=(p, d))
    b_vec = gen.normal(0.0, 1.0, size=p)

    def draw(sample_gen, count):
        return [
            (
                sample_gen.normal(0.0, value_noise, size=p),
                sample_gen.normal(0.0, jac_noise, size=(d, p)),
                sample_gen.normal(0.0, value_noise),
                sample_gen.normal(0.0, jac_noise, size=p),
            )
            for _ in range(count)
        ]

    space = GenerativeSamples(draw)

    def f1(x, s):
        return a_mat @ x + b_vec + s[0]

    def f1_exact(x):
        return a_mat @ x + b_vec

    def j1(x, s):
        return a_mat.T + s[1]

    def j1_exact(x):
        return a_mat.T.copy()

    def f2(y, s):
        return np.array([0.5 * float(y @ y) + s[2]])

    def f2_exact(y):
        return np.array([0.5 * float(y @ y)])

    def j2(y, s):
        return (y + s[3]).reshape(-1, 1)

    def j2_exact(y):
        return y.reshape(-1, 1)

    levels = [
        Level(d, p, f1, j1, f1_exact, j1_exact, samples=space),
        Level(p, 1, f2, j2, f2_exact, j2_exact, samples=space),
    ]
    return CompositionalProblem(levels, name="two_level_tracking")
