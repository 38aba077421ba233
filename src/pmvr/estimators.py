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

from .core import ShapeMismatchError, matmul_chain
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


# a batch mean stacks at most this many entries of the largest per-level
# Jacobian at once: a B0 = 202 draw at 200 x 200 would otherwise hold a
# second 65 MB copy of the draw as stacked gradients
_SLICE_ENTRIES = 2**16


def _stacked(level, oracle, point, batch, lo, hi):
    """The level's stacked oracle output on samples lo..hi-1 of the batch,
    checked for the batch axis."""
    part = tuple(a[lo:hi] for a in batch) if isinstance(batch, tuple) else batch[lo:hi]
    out = np.asarray(getattr(level, oracle)(point, part), dtype=np.float64)
    n = hi - lo
    want = (n, level.out_dim) if oracle == "value" else (n, level.in_dim, level.out_dim)
    if out.shape != want:
        raise ShapeMismatchError(
            f"{oracle} oracle returned shape {out.shape}, expected {want}"
        )
    return out


def _batch_mean(levels, points, batches, oracle="jacobian"):
    """Flattened batch mean of the sample-wise chain products J_1[s] @ ... @
    J_n[s] of the levels' stacked Jacobians at ``points`` or, with
    ``oracle="value"`` and one level, of its values. Each level's oracle is
    called once per slice of at most _SLICE_ENTRIES entries of the largest
    Jacobian (and at least one sample).
    """
    batches = [b if isinstance(b, tuple) else np.asarray(b) for b in batches]
    sizes = {len(b[0]) if isinstance(b, tuple) else len(b) for b in batches}
    size = sizes.pop()
    if sizes or size == 0:
        raise ValueError("per-level batches must be non-empty and share one size")
    width = max(1, _SLICE_ENTRIES // max(lv.in_dim * lv.out_dim for lv in levels))
    total = 0.0
    for lo in range(0, size, width):
        stacks = [
            _stacked(level, oracle, point, batch, lo, min(lo + width, size))
            for level, point, batch in zip(levels, points, batches, strict=True)
        ]
        prod = stacks[0] if oracle == "value" else matmul_chain(stacks)
        total = total + prod.sum(axis=0)
    return total.reshape(-1) / size


def _storm(prev, alpha, levels, new_points, old_points, batches, oracle="jacobian"):
    """The recursion of both trackers (module docstring) on one shared batch;
    old points that are the new ones themselves reuse the new mean."""
    mean_new = _batch_mean(levels, new_points, batches, oracle)
    if all(a is b for a, b in zip(new_points, old_points, strict=True)):
        mean_old = mean_new
    else:
        mean_old = _batch_mean(levels, old_points, batches, oracle)
    return (1.0 - alpha) * prev + alpha * mean_old + (mean_new - mean_old)


def _level_batches(problem, rng, t, size):
    """One batch per level for iteration t, from the substream (level, t).

    Each level owns its substream, so the order of the draws does not
    change any batch. The draws share the source's one rekeyed generator,
    so each batch is drawn in full before the next level's rekey.
    """
    return [
        sample_batch(level, rng.child_generator(i * STREAM_LEVEL_STRIDE + t), size)
        for i, level in enumerate(problem.levels, start=1)
    ]


def init_trackers(problem, x1, b0, rng, alpha, counters=None):
    """Plain B0-sample mini-batch means along the chain u^0 = x1.

    Each level draws its own batch from the substream (level, iteration 0);
    the same batch feeds both the value mean and the Jacobian chain product,
    since one oracle call returns the (value, Jacobian) pair. Adds K*B0 to
    the SFO counter.
    """
    if b0 < 1:
        raise ValueError("initialization batch size must be >= 1")
    batches = _level_batches(problem, rng, 0, b0)
    chain = [problem.flatten(x1)]
    for level, batch in zip(problem.levels, batches):
        chain.append(_batch_mean([level], [chain[-1]], [batch], "value"))
    v = _batch_mean(problem.levels, chain[:-1], batches)
    if counters is not None:
        counters.sfo += problem.k * b0
    trackers = ValueTrackers(u=chain[1:], alpha=alpha)
    gradient = GradientTracker(v=problem.unflatten(v), alpha=alpha)
    return trackers, gradient


def storm_value_update(trackers, problem, i, u_new_prev, u_old_prev, samples):
    """Recursive update of the level-i value tracker (1-based i).

    ``u_new_prev`` and ``u_old_prev`` are the level's chain inputs at the
    current and previous iteration; the same ``samples`` evaluate both.
    Passing the identical array for both inputs collapses the update to a
    single-point evaluation.
    """
    trackers.u[i - 1] = _storm(
        trackers.u[i - 1], trackers.alpha, [problem.levels[i - 1]],
        [u_new_prev], [u_old_prev], [samples], "value",
    )
    return trackers.u[i - 1]


def storm_gradient_update(tracker, problem, new_chain, old_chain, batches):
    """Recursive update of the overall-gradient tracker.

    ``new_chain`` and ``old_chain`` are the K chain inputs u^0..u^{K-1} at
    the current and previous iteration; ``batches`` holds the per-level
    sample batches shared between the two chain evaluations.
    """
    v = _storm(
        problem.flatten(tracker.v), tracker.alpha, problem.levels,
        new_chain, old_chain, batches,
    )
    tracker.v = problem.unflatten(v)
    return tracker.v
