"""Variance-reduced recursive trackers for inner values and the gradient.

The STORM state is plain arrays: u[i] tracks f_{i+1}(u^i) (the last entry
the scalar objective) and v the overall gradient in the decision
variable's shape. Every tracker follows one recursion with the momentum a
the caller passes (a solver stage's alpha): new estimate = (1-a)*previous
+ batch mean at the new point - (1-a)*batch mean at the old point, with the
SAME batch used for both means, which keeps the difference term small when
consecutive points are close. An empty tracker (None) takes the batch mean,
so initialization is one update on the B0 batch; with no old point the
recursion is the moving average (1-a)*previous + a*mean, as the baseline's.

Every update is one walk along the level chain. It asks each level for its
stochastic first-order oracles (one SFO: a sample's value and Jacobian) at
the new and the old chain input, and counts them where it evaluates them.
The values feed the value trackers, whose updates are the next level's
inputs; the Jacobians feed one chain product for the gradient tracker. The
old chain is the previous iterate through the trackers before the update.
An oracle's output is read, never written, so an oracle may return an
array it keeps.

The update is evaluated as (1-a)*prev + a*mean_old + (mean_new - mean_old),
which is algebraically identical and makes the telescoping case exact: with
identical old/new inputs the difference term is bitwise zero, so a = 0
leaves the tracker bit-stationary.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import _count
from .problems import FiniteSamples, GenerativeSamples, _checked, sample_batch


@dataclass(frozen=True)
class _Stream:
    """A generative level's batch that is not drawn yet: the next ``size``
    samples of its level's generator ``gen``, which the walk draws one
    slice at a time as it reaches them."""

    gen: np.random.Generator
    size: int

    def __len__(self):
        return self.size


# a slice stacks at most this many entries of the largest per-level
# Jacobian: a B0 = 202 batch at 200 x 200 would otherwise stack 65 MB of
# per-sample gradients, and its streamed draw holds one slice of samples
_SLICE_ENTRIES = 2**16


def _walk(problem, x, old_chain, batches, next_input, counters=None):
    """Evaluate each level's (value, Jacobian) pairs on its batch at its new
    chain input and, unless ``old_chain`` is None, at its old one.

    The batches are checked before any draw or oracle call: one per level,
    of one non-empty size, with an old chain of one input per level, else
    ValueError. The slice width, at most _SLICE_ENTRIES entries of the
    largest Jacobian, is then fixed for the whole walk, so every level runs
    the same slices (one view of the whole, if the batch fits in one). Per
    slice, the values are summed into the level's mean and the Jacobians
    multiply the running per-sample product. A non-last level keeps that
    product as a list of one array per slice, and slice s of the next level
    multiplies entry s; the last level reduces it. Every sum starts from 0.0
    (``initial=0.0``) and adds the slices in order, so an all-negative-zero
    column sums to +0.0. K = 1 keeps one slice alive, and a streamed batch
    (_Stream) is drawn slice by slice from its level's generator, so its
    samples are never held whole either. Each oracle output goes through
    ``problems._checked``. ``next_input(i, mean_new, mean_old)`` (0-based
    i, no old mean: None) turns level i's means into the next new input.
    Adds points * B per level to the SFO counter; returns the flat gradient
    means at the new chain and at the old one.
    """
    levels = problem.levels
    k = len(levels)
    if len(batches) != k or (old_chain is not None and len(old_chain) != k):
        raise ValueError("the walk needs one batch and one old chain input per level")
    size, largest = -1, 1
    for level, batch in zip(levels, batches):
        n = len(batch[0]) if isinstance(batch, tuple) else len(batch)
        if n == 0 or size not in (-1, n):
            raise ValueError("per-level batches must be non-empty and share one size")
        size, largest = n, max(largest, level.in_dim * level.out_dim)
    width = max(1, _SLICE_ENTRIES // largest)
    old = old_chain is not None
    chains = [[problem.flatten(x)], old_chain] if old else [[problem.flatten(x)]]
    points = range(len(chains))
    for i, level in enumerate(levels):
        batch = batches[i]
        last = i == k - 1
        streamed = isinstance(batch, _Stream)
        if not streamed and not isinstance(batch, tuple):
            batch = np.asarray(batch)
        # running sums, so a slice is dropped once reduced
        sums = [None] * len(chains)
        jacs = [None] * len(chains) if last else [[] for _ in points]
        for s, lo in enumerate(range(0, size, width)):
            hi = min(lo + width, size)
            if streamed:
                part = sample_batch(level, batch.gen, hi - lo)
            else:
                part = tuple(a[lo:hi] for a in batch) if isinstance(batch, tuple) else batch[lo:hi]
            vshape, jshape = (hi - lo, level.out_dim), (hi - lo, level.in_dim, level.out_dim)
            for p in points:
                value = _checked(level.value(chains[p][i], part), vshape, i, "value")
                total = np.add.reduce(value, axis=0, initial=0.0)
                sums[p] = total if lo == 0 else sums[p] + total
                jac = _checked(level.jacobian(chains[p][i], part), jshape, i, "jacobian")
                if i:
                    jac = prods[p][s] @ jac
                if last:
                    total = np.add.reduce(jac, axis=0, initial=0.0)
                    jacs[p] = total if lo == 0 else jacs[p] + total
                else:
                    jacs[p].append(jac)
        if counters is not None:
            counters.sfo += len(chains) * size
        chains[0].append(next_input(i, sums[0] / size, sums[1] / size if old else None))
        prods = jacs
    return jacs[0].reshape(-1) / size, jacs[1].reshape(-1) / size if old else None


def _level_batches(problem, rng, size):
    """The next batch of ``size`` samples of each level, from its stream
    ``rng.level(i)``.

    A generative level's batch is left to the walk as a _Stream, drawn in
    consecutive per-slice parts that GenerativeSamples' contract makes equal
    to the whole draw ``sample_batch(level, gen, size)``. A finite dataset's
    batch is the next ``size`` of the indices its stream draws ahead
    (``LevelStream.indices``), and any other sample space draws its batch
    whole from the generator.
    """
    batches = []
    for i, level in enumerate(problem.levels, start=1):
        stream = rng.level(i)
        if isinstance(level.samples, GenerativeSamples):
            batches.append(_Stream(stream.generator, size))
        elif type(level.samples) is FiniteSamples:
            batches.append(stream.indices(level.samples, size))
        else:
            batches.append(sample_batch(level, stream.generator, size))
    return batches


def init_trackers(problem, x1, b0, rng, counters=None):
    """Plain B0-sample mini-batch means along the chain u^0 = x1: one update
    of empty trackers on the batch of iteration 0, so no momentum is read.
    Returns (u, v); a B0 that is not an integer >= 1 raises ValueError.

    Each level draws the next batch of its stream, a generative level's
    slice by slice inside the walk, and each sample's (value, Jacobian) pair
    is evaluated once per level.
    """
    b0 = _count(b0, "initialization batch size")
    batches = _level_batches(problem, rng, b0)
    return storm_update([None] * problem.k, None, 1.0, problem, x1, None, batches, counters)


def _recursion(prev, alpha, mean_new, mean_old):
    """The module docstring's recursion; None: an empty tracker or no old mean."""
    if prev is None:
        return mean_new
    if mean_old is None:
        mean_old = mean_new
    out = (1.0 - alpha) * prev
    out += alpha * mean_old
    out += mean_new - mean_old
    return out


def storm_update(u, v, alpha, problem, x, x_old, batches, counters=None):
    """Recursive update at momentum ``alpha`` of the value trackers ``u``
    and the gradient tracker ``v``; an empty one (None) becomes its batch
    mean. Returns (new u, new v); of its arguments, only ``counters``
    changes.

    The new chain runs from the iterate ``x`` through the updated value
    trackers, the old one [x_old, u[0], .., u[K-2]] from the previous
    iterate through the trackers as they are. With no old point (``x_old``
    None: a first step, or a moving average; or empty value trackers) each
    level is evaluated at one point. ``batches`` holds one batch per level:
    drawn samples, or a generative level's _Stream (``_level_batches``). A
    ``u`` of other than K trackers raises ValueError here, and batches of
    another count or of mismatched or zero sizes raise it in the walk, once
    per update; both come before any draw or oracle call.
    """
    if len(u) != problem.k:
        raise ValueError(f"K = {problem.k} levels need K value trackers, got len(u) = {len(u)}")
    old_chain = None
    if x_old is not None and all(a is not None for a in u):
        old_chain = [problem.flatten(x_old), *u[:-1]]
    u = list(u)

    def track(i, mean_new, mean_old):
        u[i] = _recursion(u[i], alpha, mean_new, mean_old)
        return u[i]

    g_new, g_old = _walk(problem, x, old_chain, batches, track, counters)
    prev = None if v is None else problem.flatten(v)
    return u, problem.unflatten(_recursion(prev, alpha, g_new, g_old))
