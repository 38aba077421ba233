"""Variance-reduced recursive trackers for inner values and the gradient.

Both trackers follow the same recursion: new estimate = (1-a)*previous +
batch mean at the new point - (1-a)*batch mean at the old point, with the
SAME batch used for both means. The shared batch is what makes the
difference term small when consecutive points are close; the operation
signatures take a single batch so independent batches cannot sneak in.

The update is evaluated as (1-a)*prev + a*mean_old + (mean_new - mean_old),
which is algebraically identical and makes the telescoping case exact: with
identical old/new inputs the difference term is bitwise zero, so a = 0
leaves the tracker bit-stationary.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import matmul_chain
from .problems import sample_batch
from .rng import STREAM_LEVEL_STRIDE


@dataclass
class ValueTrackers:
    """u[i] tracks f_{i+1}(u^i); the last entry tracks the scalar objective."""

    u: list
    alpha: float


@dataclass
class GradientTracker:
    """v tracks the overall gradient, in the decision variable's shape."""

    v: np.ndarray
    alpha: float


def _batch_values(level, point, samples):
    vals = [np.atleast_1d(np.asarray(level.value(point, s), dtype=np.float64))
            for s in samples]
    return np.mean(vals, axis=0)


def _batch_chain_products(problem, chain_inputs, batches):
    b = len(batches[0])
    if any(len(batch) != b for batch in batches):
        raise ValueError("per-level batches must share one batch size")
    acc = None
    for j in range(b):
        factors = [
            np.asarray(level.jacobian(u, batch[j]), dtype=np.float64)
            for level, u, batch in zip(problem.levels, chain_inputs, batches)
        ]
        prod = matmul_chain(factors).reshape(-1)
        acc = prod if acc is None else acc + prod
    return acc / b


def _level_batches(problem, rng, t, size):
    """One batch per level for iteration t, from the substream (level, t).

    Each level owns its substream, so the order of the draws does not
    change any batch.
    """
    return [
        sample_batch(level, rng.split(i * STREAM_LEVEL_STRIDE + t).generator, size)
        for i, level in enumerate(problem.levels, start=1)
    ]


def init_trackers(problem, x1, b0, rng, alpha, counters=None, sweep=False):
    """Plain B0-sample mini-batch means along the chain u^0 = x1.

    Each level draws its own batch from the substream (level, iteration 0);
    the same batch feeds both the value mean and the Jacobian chain product,
    since one oracle call returns the (value, Jacobian) pair. Adds K*B0 to
    the SFO counter. ``sweep=True`` (test mode, finite spaces only) replaces
    sampling with a full pass over every record.
    """
    if b0 < 1:
        raise ValueError("initialization batch size must be >= 1")
    k = problem.k
    if sweep:
        batches = [level.samples.all_samples() for level in problem.levels]
        b0 = len(batches[-1])
    else:
        batches = _level_batches(problem, rng, 0, b0)
    chain = [problem.flatten(x1)]
    u = []
    for i, (level, batch) in enumerate(zip(problem.levels, batches), start=1):
        u_i = _batch_values(level, chain[-1], batch)
        u.append(u_i)
        if i < k:
            chain.append(u_i)
    v = _batch_chain_products(problem, chain, batches)
    if counters is not None:
        counters.sfo += k * b0
    trackers = ValueTrackers(u=u, alpha=alpha)
    gradient = GradientTracker(v=problem.unflatten(v), alpha=alpha)
    return trackers, gradient


def storm_value_update(trackers, problem, i, u_new_prev, u_old_prev, samples):
    """Recursive update of the level-i value tracker (1-based i).

    ``u_new_prev`` and ``u_old_prev`` are the level's chain inputs at the
    current and previous iteration; the same ``samples`` evaluate both.
    Passing the identical array for both inputs collapses the update to a
    single-point evaluation.
    """
    if len(samples) == 0:
        raise ValueError("empty batch")
    level = problem.levels[i - 1]
    alpha = trackers.alpha
    mean_new = _batch_values(level, u_new_prev, samples)
    if u_old_prev is u_new_prev:
        mean_old = mean_new
    else:
        mean_old = _batch_values(level, u_old_prev, samples)
    u_i = (1.0 - alpha) * trackers.u[i - 1] + alpha * mean_old + (mean_new - mean_old)
    trackers.u[i - 1] = u_i
    return u_i


def storm_gradient_update(tracker, problem, new_chain, old_chain, batches):
    """Recursive update of the overall-gradient tracker.

    ``new_chain`` and ``old_chain`` are the K chain inputs u^0..u^{K-1} at
    the current and previous iteration; ``batches`` holds the per-level
    sample batches shared between the two chain evaluations.
    """
    k = problem.k
    if len(new_chain) != k or len(old_chain) != k:
        raise ValueError(f"chains must have {k} entries")
    if len(batches) != k:
        raise ValueError(f"expected {k} per-level batches")
    alpha = tracker.alpha
    mean_new = _batch_chain_products(problem, new_chain, batches)
    if old_chain is new_chain:
        mean_old = mean_new
    else:
        mean_old = _batch_chain_products(problem, old_chain, batches)
    v_flat = problem.flatten(tracker.v)
    v_new = (1.0 - alpha) * v_flat + alpha * mean_old + (mean_new - mean_old)
    tracker.v = problem.unflatten(v_new)
    return tracker.v
