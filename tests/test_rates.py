"""The paper's rates, measured: a theorem row's schedule reaches its
criterion in proportion to the target accuracy.

Each row sweeps eps over three values, each half the last, and averages
its criterion over fixed seeds. It passes when the least-squares slope of
log(mean criterion) over log(eps) is at least 0.5. The problem, the seeds
and this rule were fixed before the first run, and a row whose T exponent
is raised by one (fewer iterations) fails it.
"""

import numpy as np
import pytest

from pmvr.benchmarks import mean_variance_problem, synthetic_portfolio_data
from pmvr.metrics import fw_gap
from pmvr.rng import RandomSource
from pmvr.sets import Simplex
from pmvr.solvers import THEOREMS, TraceConfig, pmvr_run, schedule_for

EPS = (0.4, 0.2, 0.1)
SEEDS = range(10)


@pytest.mark.parametrize("row", ["thm1", "thm2"])
def test_fw_gap_at_x_tau_falls_with_eps(row):
    problem = mean_variance_problem(synthetic_portfolio_data(d=10), 1.0)
    fset = Simplex(10)
    x1 = np.full(10, 0.1)
    means = []
    for eps in EPS:
        params = schedule_for(*THEOREMS[row], eps)
        trace = TraceConfig(metric_every=params.iters, keep_iterates=False)
        means.append(np.mean([
            fw_gap(problem, fset, pmvr_run(problem, fset, params, x1, RandomSource(s),
                                           trace=trace).x_tau)
            for s in SEEDS
        ]))
    slope = np.polyfit(np.log(EPS), np.log(means), 1)[0]
    assert slope >= 0.5, (row, means, slope)
