"""Closed-form checks of the estimators and the draws.

The golden digests pin bits and C4 checks that tracker errors trend down;
neither tells a right estimator from a wrong one with similar bits or a
similar trend. These checks have exact answers that do not depend on how
the sample streams are laid out:

* At eta = 0 on a finite level the iterate never moves, so each STORM
  tracker is an exponential moving average of independent batch means,
  started from the B0 mean. With population variance s2 and batches drawn
  with replacement, its variance at step t is
  ``q**t * s2 / B0 + (1 - q**t) * alpha / (2 - alpha) * s2 / B1`` with
  ``q = (1 - alpha)**2``, and its lag-1 correlation is
  ``(1 - alpha) * sqrt(V_t / V_{t+1})``, which tends to 1 - alpha.
* Noise-free oracles make the trackers exact, so every step's gradient
  error is rounding.
* The returned index tau is uniform on 1..T.

The tolerances were fixed from the replica counts before the first run: 5
standard errors. For R replicas the sample variance's relative standard
error is ``sqrt((kurtosis - 1) / R)``, at most ``sqrt(2 / R)`` here, since
batch means of a bounded dataset are no heavier-tailed than a normal; the
sample correlation's standard error is ``(1 - rho**2) / sqrt(R)``.
"""

import math

import numpy as np
import pytest

from pmvr.benchmarks import two_level_tracking_problem
from pmvr.estimators import init_trackers
from pmvr.metrics import OracleCounters
from pmvr.problems import CompositionalProblem, FiniteSamples, Level
from pmvr.rng import RandomSource
from pmvr.sets import Simplex
from pmvr.solvers import (
    QuadraticSubsolver,
    SolverParams,
    SolverState,
    TraceConfig,
    pmvr_run,
    pmvr_step,
)

# a 7-record dataset of linear maps on R^2: record i gives f(x) = A[i] @ x
RECORDS = np.array([[0.0, 1.0], [1.0, -2.0], [3.0, 0.5], [-1.0, 2.0],
                    [2.0, 1.0], [0.5, -1.0], [-2.0, 0.0]])
X = np.array([0.5, 0.5])


def linear_problem():
    """F(x) = mean_i A[i] @ x on one finite level, sampled with replacement."""
    mean = RECORDS.mean(axis=0)
    return CompositionalProblem([Level(
        2, 1,
        lambda x, idx: (RECORDS[idx] @ x)[:, None],
        lambda x, idx: RECORDS[idx][:, :, None],
        lambda x: np.array([mean @ x]),
        lambda x: mean[:, None],
        FiniteSamples(len(RECORDS)),
    )])


R_STORM, T_STORM, ALPHA, B0, B1 = 1000, 10, 0.3, 64, 4


def storm_paths():
    """The trackers (u, v_1, v_2) after initialization and after each of
    T_STORM steps at eta = 0, one row per seed: an (R, T + 1, 3) array."""
    problem, fset = linear_problem(), Simplex(2)
    params = SolverParams(eta=0.0, alpha=ALPHA, b0=B0, b1=B1, iters=T_STORM)
    paths = np.empty((R_STORM, T_STORM + 1, 3))
    for r in range(R_STORM):
        rng = RandomSource(r)
        state = SolverState(x=X.copy(), counters=OracleCounters(), u=[None])
        state.u, state.v = init_trackers(problem, state.x, B0, rng)
        for t in range(T_STORM + 1):
            if t:
                pmvr_step(state, problem, fset, params, rng)
                assert np.array_equal(state.x, X)
            paths[r, t, 0] = state.u[0][0]
            paths[r, t, 1:] = state.v
    return paths


@pytest.fixture(scope="module")
def paths():
    return storm_paths()


def storm_variance():
    """The closed-form variance of (u, v_1, v_2) at t = 0..T: a (T + 1, 3) array."""
    s2 = np.array([(RECORDS @ X).var(), *RECORDS.var(axis=0)])
    q = ((1.0 - ALPHA) ** 2) ** np.arange(T_STORM + 1)[:, None]
    return q * s2 / B0 + (1.0 - q) * ALPHA / (2.0 - ALPHA) * s2 / B1


def test_storm_trackers_have_the_moving_average_variance(paths):
    mean = RECORDS.mean(axis=0)
    error = np.abs(paths.mean(axis=0) - [mean @ X, *mean])
    assert (error < 5 * np.sqrt(storm_variance() / R_STORM)).all(), error
    ratio = paths.var(axis=0) / storm_variance()
    assert np.abs(ratio - 1.0).max() < 5 * math.sqrt(2 / R_STORM), ratio


def test_storm_trackers_have_the_moving_average_lag_one_correlation(paths):
    want = (1.0 - ALPHA) * np.sqrt(storm_variance()[:-1] / storm_variance()[1:])
    # the last steps are at the stationary value 1 - alpha, to 1e-3
    assert np.allclose(want[-1], 1.0 - ALPHA, atol=1e-3)
    centred = paths - paths.mean(axis=0)
    got = (centred[:, :-1] * centred[:, 1:]).mean(axis=0) / np.sqrt(
        paths[:, :-1].var(axis=0) * paths[:, 1:].var(axis=0))
    tol = 5 * (1.0 - want**2) / math.sqrt(R_STORM)
    assert (np.abs(got - want) < tol).all(), got


@pytest.mark.parametrize("subsolver", [None, QuadraticSubsolver(coeff=0.5, inner_iters=3)])
def test_exact_oracles_track_the_exact_gradient(subsolver):
    """With noise-free oracles every tracker equals its exact value after
    each step, so the squared gradient error at every step is rounding:
    below 1e-24 on gradients of norm about 2."""
    problem = two_level_tracking_problem(value_noise=0.0, jac_noise=0.0)
    params = SolverParams(eta=0.3, alpha=0.5, b0=3, b1=2, iters=40, subsolver=subsolver)
    result = pmvr_run(problem, Simplex(5), params, np.full(5, 0.2), RandomSource(7),
                      TraceConfig(track_gradient_error=True, keep_iterates=False))
    errors = result.gradient_errors
    assert errors.shape == (40,) and errors.max() < 1e-24, errors.max()
    assert not np.array_equal(result.x_final, np.full(5, 0.2))


R_TAU, T_TAU = 500, 5


def test_tau_is_uniform_on_one_to_t():
    """tau over R_TAU seeds at T = 5: every value of 1..5 appears, and the
    chi-square statistic on 4 degrees of freedom has a tail probability,
    exp(-x/2) * (1 + x/2), above 1e-4."""
    problem, fset = linear_problem(), Simplex(2)
    params = SolverParams(eta=0.5, alpha=0.5, b0=1, b1=1, iters=T_TAU)
    trace = TraceConfig(metric_every=T_TAU, keep_iterates=False)
    taus = [pmvr_run(problem, fset, params, X, RandomSource(seed), trace).tau
            for seed in range(R_TAU)]
    counts = np.bincount(taus, minlength=T_TAU + 1)
    assert counts[0] == 0 and len(counts) == T_TAU + 1 and (counts[1:] > 0).all(), counts
    expected = R_TAU / T_TAU
    chi2 = float(((counts[1:] - expected) ** 2).sum() / expected)
    assert math.exp(-chi2 / 2) * (1 + chi2 / 2) > 1e-4, (chi2, counts)
