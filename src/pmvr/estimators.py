"""Variance-reduced recursive trackers for inner values and the gradient.

Every tracker follows one recursion: new estimate = (1-a)*previous + batch
mean at the new point - (1-a)*batch mean at the old point, with the SAME
batch used for both means, which keeps the difference term small when
consecutive points are close. An empty tracker (None) takes the batch mean,
so initialization is one update on the B0 batch; with no old point the
recursion is the moving average (1-a)*previous + a*mean, as the baseline's.

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

from .problems import GenerativeSamples, _checked, sample_batch
from .rng import STREAM_LEVEL_STRIDE, RandomSource


@dataclass
class ValueTrackers:
    """u[i] tracks f_{i+1}(u^i), the last entry the scalar objective; None is empty."""

    u: list
    alpha: float


@dataclass
class GradientTracker:
    """v tracks the overall gradient in the decision variable's shape; None is empty."""

    v: np.ndarray
    alpha: float


@dataclass(frozen=True)
class _Stream:
    """A generative level's batch that is not drawn yet: ``size`` samples of
    the substream ``index`` of ``rng``, which the walk draws one slice at a
    time as it reaches them."""

    rng: RandomSource
    index: int
    size: int


# a slice stacks at most this many entries of the largest per-level
# Jacobian: a B0 = 202 batch at 200 x 200 would otherwise stack 65 MB of
# per-sample gradients, and its streamed draw holds one slice of samples
_SLICE_ENTRIES = 2**16


def _batch_size(batch):
    if isinstance(batch, _Stream):
        return batch.size
    return len(batch[0]) if isinstance(batch, tuple) else len(batch)


def _parts(level, batch, size, width):
    """(cut, samples) for each slice of at most ``width`` of a batch's
    ``size`` samples.

    A _Stream's slices are drawn here, one by one as the walk reaches them,
    from its rekeyed substream; the next level's rekey comes only after the
    last one.
    """
    streamed = isinstance(batch, _Stream)
    if streamed:
        gen = batch.rng.child_generator(batch.index)
    for lo in range(0, size, width):
        cut = slice(lo, min(lo + width, size))
        if streamed:
            yield cut, sample_batch(level, gen, cut.stop - lo)
        else:
            yield cut, tuple(a[cut] for a in batch) if isinstance(batch, tuple) else batch[cut]


def _walk(problem, x, old_chain, batches, next_input, counters=None):
    """Evaluate each level's (value, Jacobian) pairs on its batch at its new
    chain input and, unless ``old_chain`` is None, at its old one.

    Per slice of at most _SLICE_ENTRIES entries of the largest Jacobian, the
    values are summed into the level's mean and the Jacobians multiply a
    running per-sample product, reduced at the last level: K = 1 keeps one
    slice alive, and a streamed batch (_Stream) is drawn slice by slice, so
    its samples are never held whole either. ``next_input(i, mean_new,
    mean_old)`` (0-based i, no old mean: None) turns level i's means into
    the next new input. Adds points * B per level to the SFO counter;
    returns the new chain u^0..u^{K-1} and the flat gradient means at it
    and at the old one.
    """
    levels = problem.levels
    batches = [b if isinstance(b, (tuple, _Stream)) else np.asarray(b) for b in batches]
    sizes = {_batch_size(b) for b in batches}
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
        for cut, part in _parts(level, batch, size, width):
            n = cut.stop - cut.start
            for p, chain in enumerate(chains):
                value = _checked(level.value(chain[i], part), (n, level.out_dim), i, "value")
                sums[p] = sums[p] + value.sum(axis=0)
                jac = _checked(level.jacobian(chain[i], part),
                               (n, level.in_dim, level.out_dim), i, "jacobian")
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


def _level_batches(problem, rng, t, size, streamed=False):
    """One batch per level for iteration t, from the substream (level, t).

    Each level owns its substream, so the order of the draws does not
    change any batch. The draws share the source's one rekeyed generator,
    so a level's draw ends before the next level's rekey. ``streamed``
    leaves a generative level's batch to the walk as a _Stream, drawn in
    consecutive per-slice parts that GenerativeSamples' contract makes equal
    to the whole draw here. A finite dataset's batch is drawn whole either
    way: it is a few int64s, and numpy's bounded-integer draw drops its
    buffered 32-bit half at the end of every call, so parts would change
    the stream.
    """
    batches = []
    for i, level in enumerate(problem.levels, start=1):
        index = i * STREAM_LEVEL_STRIDE + t
        if streamed and isinstance(level.samples, GenerativeSamples):
            batches.append(_Stream(rng, index, size))
        else:
            batches.append(sample_batch(level, rng.child_generator(index), size))
    return batches


def init_trackers(problem, x1, b0, rng, alpha, counters=None):
    """Plain B0-sample mini-batch means along the chain u^0 = x1: one update
    of empty trackers on the batch of iteration 0.

    Each level draws its own batch from the substream (level, iteration 0),
    a generative level's slice by slice inside the walk, and each sample's
    (value, Jacobian) pair is evaluated once per level.
    """
    if b0 < 1:
        raise ValueError("initialization batch size must be >= 1")
    trackers = ValueTrackers(u=[None] * problem.k, alpha=alpha)
    gradient = GradientTracker(v=None, alpha=alpha)
    batches = _level_batches(problem, rng, 0, b0, streamed=True)
    storm_update(trackers, gradient, problem, x1, None, batches, counters)
    return trackers, gradient


def _recursion(prev, alpha, mean_new, mean_old):
    """The module docstring's recursion; None: an empty tracker or no old mean."""
    if prev is None:
        return mean_new
    if mean_old is None:
        mean_old = mean_new
    return (1.0 - alpha) * prev + alpha * mean_old + (mean_new - mean_old)


def storm_update(trackers, gradient, problem, x, old_chain, batches, counters=None):
    """Recursive update of every value tracker and of the gradient tracker;
    an empty one (None) becomes its batch mean.

    The new chain runs from the iterate ``x`` through the updated value
    trackers. ``old_chain`` is the previous step's, or None with no old
    point (a first step, whose iterate has not moved, or a moving average),
    so each level is evaluated at one point. ``batches`` holds one batch per
    level: drawn samples, or a generative level's _Stream
    (``_level_batches(..., streamed=True)``).
    Returns the new chain.
    """

    def track(i, mean_new, mean_old):
        trackers.u[i] = _recursion(trackers.u[i], trackers.alpha, mean_new, mean_old)
        return trackers.u[i]

    new_chain, g_new, g_old = _walk(problem, x, old_chain, batches, track, counters)
    prev = None if gradient.v is None else problem.flatten(gradient.v)
    gradient.v = problem.unflatten(_recursion(prev, gradient.alpha, g_new, g_old))
    return new_chain
