"""Seeded randomness with reproducible substreams.

All randomness in this package flows through :class:`RandomSource`, a thin
wrapper around numpy's counter-based Philox generator keyed through
``SeedSequence``. Identical ``(seed, stream path)`` pairs produce identical
sample sequences on every platform, and distinct stream indices give
independent streams by construction (distinct Philox keys).

Stream index conventions used by the solvers:

* ``level * 2**20 + iteration`` -- per-level sample batches (iteration 0 is
  the initialization batch),
* ``2**40 + stage`` -- the uniform draw of the returned iterate index.

These streams are unchanged by batched oracles: a finite dataset draws its
batch with one ``integers`` call, and a generative draw fills its batch
arrays sample by sample in the generator-call order of a per-sample loop.
"""

from __future__ import annotations

import numpy as np

STREAM_LEVEL_STRIDE = 2**20
STREAM_TAU_BASE = 2**40


class RandomSource:
    """A seeded stream of randomness that can be split into substreams.

    A source is single-owner: it is never shared between concurrent runs,
    only split. ``split(i)`` derives an independent child stream; the child
    depends only on ``(seed, path + (i,))``, never on how much the parent
    has been consumed.
    """

    def __init__(self, seed, path=()):
        seed = int(seed)
        if not 0 <= seed < 2**64:
            raise ValueError(f"seed must be a 64-bit unsigned integer, got {seed}")
        self.seed = seed
        self.path = tuple(int(p) for p in path)
        self._generator = None

    def split(self, index):
        """Derive the independent substream with the given index."""
        if index < 0:
            raise ValueError(f"stream index must be non-negative, got {index}")
        return RandomSource(self.seed, self.path + (int(index),))

    @property
    def generator(self):
        """The numpy Generator backing this stream (created lazily)."""
        if self._generator is None:
            ss = np.random.SeedSequence(self.seed, spawn_key=self.path)
            self._generator = np.random.Generator(np.random.Philox(ss))
        return self._generator

    def __repr__(self):
        return f"RandomSource(seed={self.seed}, path={self.path})"


def generator_for(rng):
    """Accept either a RandomSource or a bare numpy Generator."""
    if isinstance(rng, RandomSource):
        return rng.generator
    if isinstance(rng, np.random.Generator):
        return rng
    raise TypeError(f"expected RandomSource or numpy Generator, got {type(rng)!r}")
