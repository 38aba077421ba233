"""Variance-reduced recursive trackers for inner values and the gradient.

Both trackers follow the same recursion: new estimate = (1-a)*previous +
batch mean at the new point - (1-a)*batch mean at the old point, with the
SAME batch used for both means, which keeps the difference term small when
consecutive points are close.

Every update is one walk along the level chain. It asks each level for its
stochastic first-order oracles (one SFO: a sample's value and Jacobian) at
the new and the old chain input, and counts them where it evaluates them.
The values feed the value trackers, whose updates are the next level's
inputs; the Jacobians feed one chain product for the gradient tracker.

The update is evaluated as (1-a)*prev + a*mean_old + (mean_new - mean_old),
which is algebraically identical and makes the telescoping case exact: with
identical old/new inputs the difference term is bitwise zero, so a = 0
leaves the tracker bit-stationary.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import ShapeMismatchError
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


# a slice stacks at most this many entries of the largest per-level
# Jacobian: a B0 = 202 draw at 200 x 200 would otherwise hold a second 65 MB
# copy of the draw as stacked gradients
_SLICE_ENTRIES = 2**16


def _checked(out, want, oracle):
    out = np.asarray(out, dtype=np.float64)
    if out.shape != want:
        raise ShapeMismatchError(f"{oracle} oracle returned shape {out.shape}, expected {want}")
    return out


def _walk(problem, x, old_chain, batches, next_input, counters=None):
    """Evaluate each level's (value, Jacobian) pairs on its batch at its new
    chain input and, unless ``old_chain`` is None, at its old one.

    Per slice of at most _SLICE_ENTRIES entries of the largest Jacobian, the
    values are summed into the level's mean and the Jacobians multiply a
    running per-sample product, reduced at the last level: K = 1 keeps one
    slice alive. ``next_input(i, mean_new, mean_old)`` (0-based i, no old
    mean: None) turns level i's means into the next new input. Adds
    points * B per level to the SFO counter; returns the new chain
    u^0..u^{K-1} and the flat gradient means at it and at the old one.
    """
    levels = problem.levels
    batches = [b if isinstance(b, tuple) else np.asarray(b) for b in batches]
    sizes = {len(b[0]) if isinstance(b, tuple) else len(b) for b in batches}
    size = sizes.pop()
    if sizes or size == 0:
        raise ValueError("per-level batches must be non-empty and share one size")
    if len(batches) != len(levels) or (old_chain is not None and len(old_chain) != len(levels)):
        raise ValueError("the walk needs one batch and one old chain input per level")
    width = max(1, _SLICE_ENTRIES // max(lv.in_dim * lv.out_dim for lv in levels))
    chains = [[problem.flatten(x)]] + ([] if old_chain is None else [old_chain])
    prods = [None] * len(chains)
    for i, (level, batch) in enumerate(zip(levels, batches)):
        last = i == len(levels) - 1
        # running sums, so a slice is dropped once reduced; the product of
        # the levels so far is kept whole until the next level's input is known
        sums, jacs = [0.0] * len(chains), [0.0 if last else [] for _ in chains]
        for lo in range(0, size, width):
            n = min(width, size - lo)
            cut = slice(lo, lo + n)
            part = tuple(a[cut] for a in batch) if isinstance(batch, tuple) else batch[cut]
            for p, chain in enumerate(chains):
                value = _checked(level.value(chain[i], part), (n, level.out_dim), "value")
                sums[p] = sums[p] + value.sum(axis=0)
                jac = _checked(
                    level.jacobian(chain[i], part), (n, level.in_dim, level.out_dim), "jacobian"
                )
                jac = jac if prods[p] is None else prods[p][cut] @ jac
                if last:
                    jacs[p] = jacs[p] + jac.sum(axis=0)
                else:
                    jacs[p].append(jac)
        if counters is not None:
            counters.sfo += len(chains) * size
        means = [s.reshape(-1) / size for s in sums] + [None]
        chains[0].append(next_input(i, means[0], means[1]))
        if not last:
            prods = [j[0] if len(j) == 1 else np.concatenate(j) for j in jacs]
    grads = [j.reshape(-1) / size for j in jacs] + [None]
    return chains[0][:-1], grads[0], grads[1]


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

    Each level draws its own batch from the substream (level, iteration 0).
    One walk evaluates each sample's (value, Jacobian) pair once per level:
    the value means are the trackers and the next chain inputs, and the
    Jacobian chain product's mean is the gradient tracker.
    """
    if b0 < 1:
        raise ValueError("initialization batch size must be >= 1")
    u = []

    def keep(i, mean, _):
        u.append(mean)
        return mean

    _, v, _ = _walk(problem, x1, None, _level_batches(problem, rng, 0, b0), keep, counters)
    return ValueTrackers(u=u, alpha=alpha), GradientTracker(v=problem.unflatten(v), alpha=alpha)


def _recursion(prev, alpha, mean_new, mean_old):
    """The module docstring's recursion; no old mean: the points coincide."""
    if mean_old is None:
        mean_old = mean_new
    return (1.0 - alpha) * prev + alpha * mean_old + (mean_new - mean_old)


def storm_update(trackers, gradient, problem, x, old_chain, batches, counters=None):
    """Recursive update of every value tracker and of the gradient tracker.

    The new chain runs from the iterate ``x`` through the updated value
    trackers. ``old_chain`` is the previous step's, or None on a first
    step, whose iterate has not moved, so each level is evaluated at one
    point. ``batches`` holds one batch per level. Returns the new chain.
    """

    def track(i, mean_new, mean_old):
        trackers.u[i] = _recursion(trackers.u[i], trackers.alpha, mean_new, mean_old)
        return trackers.u[i]

    new_chain, g_new, g_old = _walk(problem, x, old_chain, batches, track, counters)
    v = _recursion(problem.flatten(gradient.v), gradient.alpha, g_new, g_old)
    gradient.v = problem.unflatten(v)
    return new_chain
