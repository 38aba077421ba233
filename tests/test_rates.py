"""The paper's rates, measured: a theorem row's schedule reaches its
criterion in proportion to the target accuracy.

Each row sweeps eps over three values, each half the last, and averages
its criterion at x_tau over fixed seeds. It passes when the least-squares
slope of log(mean criterion) over log(eps) is at least 0.5. The problems,
the seeds and this rule were fixed before the first run, and a row whose
T exponent is raised by one (fewer iterations) fails it.

The theorems bound the expectation over tau, not one draw of it: each seed
draws one tau, so a seed that draws tau = 1 at every eps floors the x_tau
mean at its start point's criterion. The E_tau rows average the criterion
over the iterates x_1..x_T instead, which is that expectation exactly for
the run's own samples, under the same rule. They reuse the x_tau rows'
problems and seeds, whose E_tau slopes had been probed before they were
written.
"""

import numpy as np
import pytest

from pmvr.benchmarks import (
    mean_variance_problem,
    quadratic_distance_problem,
    synthetic_portfolio_data,
)
from pmvr.metrics import fw_gap, gradient_mapping
from pmvr.rng import RandomSource
from pmvr.sets import Simplex
from pmvr.solvers import THEOREMS, TraceConfig, pmvr_run, schedule_for

EPS = (0.4, 0.2, 0.1)
SEEDS = range(10)


def slope_at_x_tau(row, problem, fset, x1, criterion):
    """The row's mean criterion at x_tau for each eps, and their log-log slope."""
    means = []
    for eps in EPS:
        params = schedule_for(*THEOREMS[row], eps)
        trace = TraceConfig(metric_every=params.iters, keep_iterates=False)
        means.append(np.mean([
            criterion(pmvr_run(problem, fset, params, x1, RandomSource(s), trace=trace).x_tau)
            for s in SEEDS
        ]))
    return means, np.polyfit(np.log(EPS), np.log(means), 1)[0]


def slope_over_tau(row, problem, fset, x1, criterion):
    """The row's mean over seeds of E_tau[criterion(x_tau)], the average over
    RunResult.iterates[:T] (x_1..x_T), for each eps, and their log-log slope."""
    means = []
    for eps in EPS:
        params = schedule_for(*THEOREMS[row], eps)
        trace = TraceConfig(metric_every=params.iters)
        means.append(np.mean([
            np.mean([criterion(x) for x in run.iterates[:params.iters]])
            for run in (pmvr_run(problem, fset, params, x1, RandomSource(s), trace=trace)
                        for s in SEEDS)
        ]))
    return means, np.polyfit(np.log(EPS), np.log(means), 1)[0]


@pytest.mark.parametrize("row", ["thm1", "thm2"])
def test_fw_gap_at_x_tau_falls_with_eps(row):
    problem = mean_variance_problem(synthetic_portfolio_data(d=10), 1.0)
    fset = Simplex(10)
    means, slope = slope_at_x_tau(
        row, problem, fset, np.full(10, 0.1), lambda x: fw_gap(problem, fset, x)
    )
    assert slope >= 0.5, (row, means, slope)


@pytest.mark.parametrize("row", ["thm3", "thm4"])
def test_gradient_mapping_at_x_tau_falls_with_eps(row):
    """F(x) = ||x - 5 e_1||^2 on Simplex(10), from the barycenter, at the
    schedules' beta = 1. For every x in the simplex, x - grad F(x)
    = 10 e_1 - x has its first entry above every other by at least 9, so
    it projects onto e_1: the gradient mapping is ||x - e_1||^2 on the
    whole set, 0.9 at x1 and zero only at the optimum e_1."""
    fset = Simplex(10)
    problem = quadratic_distance_problem(5.0 * np.eye(10)[0], fset)
    means, slope = slope_at_x_tau(
        row, problem, fset, np.full(10, 0.1), lambda x: gradient_mapping(problem, fset, x)
    )
    assert slope >= 0.5, (row, means, slope)


@pytest.mark.parametrize("row", ["thm1", "thm2"])
def test_fw_gap_over_tau_falls_with_eps(row):
    problem = mean_variance_problem(synthetic_portfolio_data(d=10), 1.0)
    fset = Simplex(10)
    means, slope = slope_over_tau(
        row, problem, fset, np.full(10, 0.1), lambda x: fw_gap(problem, fset, x)
    )
    assert slope >= 0.5, (row, means, slope)


@pytest.mark.parametrize("row", ["thm3", "thm4"])
def test_gradient_mapping_over_tau_falls_with_eps(row):
    """The problem of test_gradient_mapping_at_x_tau_falls_with_eps."""
    fset = Simplex(10)
    problem = quadratic_distance_problem(5.0 * np.eye(10)[0], fset)
    means, slope = slope_over_tau(
        row, problem, fset, np.full(10, 0.1), lambda x: gradient_mapping(problem, fset, x)
    )
    assert slope >= 0.5, (row, means, slope)
