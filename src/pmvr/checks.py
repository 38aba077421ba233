"""Executable self-check suites: oracle geometry, gradients, subsolver.

Each suite returns a list of CheckResult records with the measured
quantity and its threshold, so both the command-line harness and the test
suite can run them. The finite-difference gradient here is the package's
independent oracle: it never calls the chain-product path it is checking.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .benchmarks import (
    SingleIndexConfig,
    mean_deviation_problem,
    mean_variance_problem,
    single_index_problem,
    synthetic_portfolio_data,
)
from .core import inner
from .problems import exact_gradient, objective
from .rng import RandomSource
from .sets import Box, NuclearNormBall, Simplex
from .solvers import quadratic_fw_subsolve


@dataclass
class CheckResult:
    suite: str
    name: str
    passed: bool
    measured: float
    threshold: float

    def line(self):
        mark = "PASS" if self.passed else "FAIL"
        return (
            f"[{mark}] {self.suite}/{self.name}: "
            f"measured {self.measured:.3e} vs threshold {self.threshold:.3e}"
        )


def finite_difference_gradient(fun, x, h=1e-6):
    """Central differences of a scalar function, coordinate by coordinate."""
    x = np.asarray(x, dtype=np.float64)
    grad = np.zeros_like(x)
    flat = grad.reshape(-1)
    xf = x.copy().reshape(-1)
    for j in range(xf.size):
        orig = xf[j]
        xf[j] = orig + h
        fp = fun(xf.reshape(x.shape))
        xf[j] = orig - h
        fm = fun(xf.reshape(x.shape))
        xf[j] = orig
        flat[j] = (fp - fm) / (2.0 * h)
    return grad


def relative_error(approx, reference):
    scale = max(np.linalg.norm(approx), np.linalg.norm(reference), 1e-12)
    return float(np.linalg.norm(np.asarray(approx) - np.asarray(reference)) / scale)


def oracle_suite():
    """Simplex and nuclear-ball geometry against exhaustive / full-SVD oracles."""
    results = []
    gen = RandomSource(0).split(1).generator

    # simplex LMO beats every vertex, all dimensions up to 100
    worst = 0.0
    for d in range(1, 101):
        for _ in range(3):
            direction = gen.standard_normal(d)
            fset = Simplex(d)
            z = fset.lmo(direction)
            best = min(direction)  # value at the best vertex
            worst = max(worst, float(direction @ z) - best)
    results.append(CheckResult("oracles", "simplex-lmo-optimality", worst <= 0.0, worst, 0.0))

    fset = Simplex(2)
    cases = [
        (np.array([0.2, 0.4]), np.array([0.4, 0.6])),
        (np.array([5.0, 1.0]), np.array([1.0, 0.0])),
    ]
    err = max(np.abs(fset.project(p) - want).max() for p, want in cases)
    results.append(CheckResult("oracles", "simplex-projection-hand-cases", err <= 1e-12, err, 1e-12))

    # idempotence and non-expansiveness on random points
    worst_idem = 0.0
    worst_exp = 0.0
    for d in (2, 5, 20):
        fs = Simplex(d)
        for _ in range(20):
            a = gen.normal(0, 2, size=d)
            b = gen.normal(0, 2, size=d)
            pa, pb = fs.project(a), fs.project(b)
            worst_idem = max(worst_idem, np.abs(fs.project(pa) - pa).max())
            worst_exp = max(
                worst_exp,
                np.linalg.norm(pa - pb) - np.linalg.norm(a - b),
            )
    results.append(CheckResult("oracles", "simplex-projection-idempotent", worst_idem <= 1e-12, worst_idem, 1e-12))
    results.append(CheckResult("oracles", "simplex-projection-nonexpansive", worst_exp <= 1e-12, worst_exp, 1e-12))

    # nuclear LMO against the dense-SVD oracle and random feasible points
    worst_rel = 0.0
    worst_opt = 0.0
    for shape in [(3, 3), (5, 4), (12, 7), (20, 15)]:
        ball = NuclearNormBall(shape[0], shape[1], 1.5)
        for _ in range(13):
            direction = gen.standard_normal(shape)
            z = ball.lmo(direction)
            sigma_ref = np.linalg.svd(direction, compute_uv=False)[0]
            worst_rel = max(
                worst_rel, abs(-inner(z, direction) / 1.5 - sigma_ref) / sigma_ref
            )
            for _ in range(4):
                u, _, vt = np.linalg.svd(gen.standard_normal(shape), full_matrices=False)
                w = gen.random(min(shape))
                w = 1.5 * w / w.sum()
                feas = (u * w) @ vt
                worst_opt = max(worst_opt, inner(z, direction) - inner(feas, direction))
    results.append(CheckResult("oracles", "nuclear-lmo-vs-svd-oracle", worst_rel <= 1e-6, worst_rel, 1e-6))
    results.append(CheckResult("oracles", "nuclear-lmo-optimality", worst_opt <= 1e-6, worst_opt, 1e-6))

    # box sanity
    box = Box(np.array([-1.0, 0.0]), np.array([2.0, 3.0]))
    z = box.lmo(np.array([1.0, -1.0]))
    ok = np.array_equal(z, np.array([-1.0, 3.0]))
    results.append(CheckResult("oracles", "box-lmo-corner", ok, 0.0 if ok else 1.0, 0.0))
    return results


def _benchmark_instances():
    data = synthetic_portfolio_data(d=6, periods=80, data_seed=0)
    mv = mean_variance_problem(data, 1.0)
    md = mean_deviation_problem(data, 1.0)
    si, ball = single_index_problem(SingleIndexConfig(m=5, n=4, sigma=0.1, data_seed=0))
    return [
        (mv, Simplex(6)),
        (md, Simplex(6)),
        (si, ball),
    ]


def gradient_suite():
    """Chain-rule gradients against central finite differences (h = 1e-6)."""
    results = []
    gen = RandomSource(0).split(2).generator
    for problem, fset in _benchmark_instances():
        worst = 0.0
        for _ in range(5):
            x = fset.project(np.asarray(gen.normal(0.3, 0.5, size=fset.shape)))
            grad = exact_gradient(problem, x)
            fd = finite_difference_gradient(lambda p: objective(problem, p), x)
            worst = max(worst, relative_error(grad, fd))
        results.append(
            CheckResult("gradients", f"{problem.name}-fd-match", worst <= 1e-5, worst, 1e-5)
        )
    return results


def subsolver_suite():
    """Certificate g(w_{N+1}) - g(w*) <= 2*coeff*D^2/(N+2) on the simplex."""
    results = []
    gen = RandomSource(0).split(3).generator
    d = 8
    fset = Simplex(d)
    coeff = 1.0
    for n_iters in (10, 100):
        bound = 2.0 * coeff * fset.diameter**2 / (n_iters + 2)
        worst = -np.inf
        for _ in range(50):
            v = gen.normal(0.0, 1.0, size=d)
            x_t = fset.project(gen.normal(0.0, 1.0, size=d))

            def g(w):
                return inner(v, w - x_t) + 0.5 * coeff * inner(w - x_t, w - x_t)

            w = quadratic_fw_subsolve(v, x_t, coeff, n_iters, fset)
            w_star = fset.project(x_t - v / coeff)
            worst = max(worst, g(w) - g(w_star) - bound)
        results.append(
            CheckResult(
                "subsolver", f"certificate-N{n_iters}", worst <= 1e-9, worst, 1e-9
            )
        )
    return results


SUITES = {
    "oracles": oracle_suite,
    "gradients": gradient_suite,
    "subsolver": subsolver_suite,
}


def run_suites(which="all"):
    names = list(SUITES) if which == "all" else [which]
    results = []
    for name in names:
        if name not in SUITES:
            raise ValueError(f"unknown check suite {name!r}")
        results.extend(SUITES[name]())
    return results
