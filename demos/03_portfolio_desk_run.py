"""Desk-scale risk-averse portfolio runs on synthetic returns.

Builds the two-level mean-variance problem over the simplex, solves it
with the projection-free method under a theorem schedule, and prints the
trace of exact criteria; then shows the three-level mean-deviation
variant and the projected-gradient baseline for comparison.
"""

import numpy as np

from pmvr import RandomSource, Simplex, TraceConfig, pmvr_run, schedule_for
from pmvr.benchmarks import (
    mean_deviation_problem,
    mean_variance_problem,
    synthetic_portfolio_data,
)
from pmvr.solvers import SolverParams, projected_baseline_run

data = synthetic_portfolio_data(d=10, periods=500, data_seed=0)
fset = Simplex(10)
x1 = np.full(10, 0.1)

print("== mean-variance (two levels), theorem-1 schedule at eps = 0.1 ==")
params = schedule_for("fw_gap", "constant", 0.1)
print(f"schedule: eta={params.eta}, alpha={params.alpha}, "
      f"B0={params.b0}, B1={params.b1}, T={params.iters}")
problem = mean_variance_problem(data, lam=1.0)
res = pmvr_run(problem, fset, params, x1, RandomSource(7),
               trace=TraceConfig(metric_every=200, keep_iterates=False))
print(f"{'iter':>6} {'objective':>12} {'fw gap':>12} {'grad map':>12} {'sfo':>8}")
for row in res.trace:
    print(f"{row.iteration:>6} {row.objective:>12.6f} {row.fw_gap:>12.3e} "
          f"{row.grad_map:>12.3e} {row.sfo:>8}")
print(f"returned iterate tau={res.tau}, weights {np.round(res.x_tau, 3)}")

print("\n== mean-deviation (three levels) ==")
# the smoothed square root is steep near zero variance, so this objective
# wants heavier per-step averaging than the two-level one
params3 = SolverParams(eta=0.01, alpha=0.03, b0=100, b1=8, iters=1000)
problem3 = mean_deviation_problem(data, lam=1.0)
res3 = pmvr_run(problem3, fset, params3, x1, RandomSource(7),
                trace=TraceConfig(metric_every=250, keep_iterates=False))
for row in res3.trace:
    print(f"iter {row.iteration:>5}: F = {row.objective:.6f}, fw gap = {row.fw_gap:.3e}")

print("\n== projected-gradient baseline (sanity comparator) ==")
# the same entry-point signature; the baseline draws no B0 batch
paramsb = SolverParams(eta=0.05, alpha=0.5, b0=1, b1=2, iters=1000)
resb = projected_baseline_run(problem, fset, paramsb, x1, RandomSource(7),
                              trace=TraceConfig(metric_every=500, keep_iterates=False))
for row in resb.trace:
    print(f"iter {row.iteration:>5}: F = {row.objective:.6f}, fw gap = {row.fw_gap:.3e}")
print("(the baseline projects every step; its LMO counter stays at "
      f"{resb.state.counters.lmo})")
