"""Seeded randomness: one source per run, split into independent streams.

A :class:`RandomSource` keys numpy's Philox generator through
``SeedSequence(seed, spawn_key=path)``, so a draw is the same on every
platform and distinct split indices give independent streams. Level ``i``
(1..K) draws every batch of a run, B0 first and then one per step, in order
from ``split(i).generator``, which the source keeps (``level(i)``): a second
run on a source continues its level streams, and a new
``RandomSource(seed)`` reproduces a run.
"""

from __future__ import annotations

import operator

import numpy as np

STREAM_TAU_BASE = 2**40  # split 2**40 + stage draws a run's returned-iterate index
CHUNK = 4096  # a finite level draws its indices ahead, this many at a time
_NO_INDICES = np.empty(0, dtype=np.int64)


def _nonnegative_int(value, what):
    try:
        n = operator.index(value)
    except TypeError:
        raise ValueError(f"{what} must be a non-negative integer, got {value!r}") from None
    if n < 0:
        raise ValueError(f"{what} must be a non-negative integer, got {n}")
    return n


class LevelStream:
    """Level i's stream on a source: ``generator`` is ``split(i).generator``; ``ahead``
    holds indices below ``high`` drawn and not served yet (dropped if ``high`` changes)."""

    __slots__ = ("generator", "high", "ahead")

    def __init__(self, generator):
        self.generator, self.high, self.ahead = generator, None, _NO_INDICES

    def indices(self, samples, size):
        """The next ``size`` indices of the FiniteSamples ``samples``, topped up when
        short by one ``samples.draw`` of CHUNK or the shortfall if larger. numpy draws
        bounded integers in sequence, so these equal one draw per batch, whatever CHUNK is."""
        if self.high != samples.size:
            self.high, self.ahead = samples.size, _NO_INDICES
        short = size - len(self.ahead)
        if short > 0:
            more = samples.draw(self.generator, max(CHUNK, short))
            self.ahead = np.concatenate((self.ahead, more)) if len(self.ahead) else more
        if short >= CHUNK:  # drawn up to the batch's end: hand it over whole
            batch, self.ahead = self.ahead, _NO_INDICES
        else:
            batch, self.ahead = self.ahead[:size].copy(), self.ahead[size:]
        return batch


# every seed is below this: one unsigned 64-bit word
SEED_LIMIT = 2**64


class RandomSource:
    """A seeded stream of randomness, never shared between concurrent runs,
    only split: ``split(i)`` depends on ``(seed, path + (i,))`` alone. The
    seed (below SEED_LIMIT), path entries and split indices are integers >= 0."""

    def __init__(self, seed, path=()):
        seed = _nonnegative_int(seed, "seed")
        if seed >= SEED_LIMIT:
            raise ValueError(f"seed must be a 64-bit unsigned integer, got {seed}")
        self.seed, self.path = seed, tuple(_nonnegative_int(p, "stream path entry") for p in path)
        self._generator, self._levels = None, {}

    def split(self, index):
        """Derive the independent substream with the given index."""
        return RandomSource(self.seed, self.path + (_nonnegative_int(index, "stream index"),))

    @property
    def generator(self):
        """The numpy Generator backing this stream (created lazily)."""
        if self._generator is None:
            ss = np.random.SeedSequence(self.seed, spawn_key=self.path)
            self._generator = np.random.Generator(np.random.Philox(ss))
        return self._generator

    def level(self, i):
        """Level i's LevelStream, made at the first call and kept."""
        if i not in self._levels:
            self._levels[i] = LevelStream(self.split(i).generator)
        return self._levels[i]

    def __repr__(self):
        return f"RandomSource(seed={self.seed}, path={self.path})"
