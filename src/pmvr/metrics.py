"""Convergence criteria and oracle accounting.

All three criteria are computed from the problem's exact oracles, so the
plotted curves are noise-free. Evaluating a metric never touches the
oracle counters: those count solver work only.

Counter conventions (one SFO = one sample's (value, Jacobian) pair at one
level and point, so a batch oracle call on B samples counts B):

* initialization with batch B0 costs K*B0,
* the first solver step evaluates each sample at a single chain point per
  level (the iterate has not moved yet), costing K*B1,
* every later step evaluates each sample at the old and new points,
  costing 2*K*B1,
* the LMO counter grows by 1 per step, or by N when the quadratic
  subsolver runs N inner iterations.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import inner
from .problems import exact_gradient, objective


@dataclass
class OracleCounters:
    sfo: int = 0
    lmo: int = 0


def expected_sfo(t, k, b0, b1):
    """Closed-form SFO count after a run of t steps (t = 0 means init only)."""
    if t <= 0:
        return k * b0
    return k * b0 + k * b1 + 2 * (t - 1) * k * b1


def expected_lmo(t, n_inner=None):
    """Closed-form LMO count: one call per step, or N per step with a subsolver."""
    return t if n_inner is None else t * n_inner


def expected_baseline_sfo(t, k, b):
    """The projected baseline evaluates each sample once per level per step."""
    return t * k * b


def fw_gap(problem, fset, x):
    """max over the set of <x_hat - x, -grad F(x)>, attained at the LMO point."""
    return _fw_gap(fset, x, exact_gradient(problem, x))


def _fw_gap(fset, x, g):
    z = fset.lmo(g)
    gap = inner(np.asarray(x, dtype=np.float64) - z, g)
    if gap < -1e-9:
        raise ValueError(f"Frank-Wolfe gap came out {gap}, below -1e-9")
    return gap


def gradient_mapping(problem, fset, x, beta=1.0):
    """||beta * (x - proj(x - grad F(x)/beta))||^2."""
    return _gradient_mapping(fset, x, exact_gradient(problem, x), beta)


def _gradient_mapping(fset, x, g, beta):
    if beta <= 0:
        raise ValueError("beta must be positive")
    x = np.asarray(x, dtype=np.float64)
    p = fset.project(x - g / beta)
    d = beta * (x - p)
    return float(np.vdot(d, d))


def optimal_gap(problem, x, f_star=None):
    """F(x) - F_star; F_star from metadata unless supplied explicitly."""
    if f_star is None:
        f_star = problem.metadata.f_star
    if f_star is None:
        raise ValueError("no optimal value available for this problem")
    return objective(problem, x) - float(f_star)
