"""Seeded randomness with reproducible substreams.

All randomness in this package flows through :class:`RandomSource`, a thin
wrapper around numpy's counter-based Philox generator keyed through
``SeedSequence``. Identical ``(seed, stream path)`` pairs produce identical
sample sequences on every platform, and distinct stream indices give
independent streams by construction (distinct Philox keys).

Stream index conventions used by the solvers:

* ``level * 2**20 + iteration`` -- per-level sample batches (iteration 0 is
  the initialization batch); a run therefore has fewer than 2**20
  iterations in total, or level i's late batches would repeat level i+1's,
* ``2**40 + stage`` -- the uniform draw of the returned iterate index.

The per-level batches come from ``child_generator(index)``, which yields
exactly the stream of ``split(index).generator`` without building a
``SeedSequence``, a ``Philox`` and a ``Generator`` for each one. The source
hashes its seed and path into a ``SeedSequence`` entropy pool once. It then
derives the keys of 256 consecutive stream indices at a time, the aligned
block around the index asked for, in one pass of numpy uint32 arithmetic:
the same mixing of the index words into the pool and the same
``generate_state`` hash, applied to arrays, so each key is the 2 x 64-bit
Philox key that
``SeedSequence(seed, spawn_key=path + (index,)).generate_state(2, np.uint64)``
gives. The source keeps one block per stream family (``index >> 20``, so
one per level), for at most 32 families (4 KiB each), so a run's
consecutive iterations cost one lookup per draw. Each call writes its key,
with a zero counter and an empty output buffer, into one Philox generator
that the source owns and reuses. Every substream keeps its values.

A finite dataset's step batch, ``integers(0, size, size=B)`` on its
substream, is also drawn a block at a time: ``_BlockGenerator(source,
index)`` stands in for ``child_generator(index)`` and serves that one call
from a block draw. It runs Philox4x64-10 (Salmon et al., SC 2011) over the
block's 256 keys in one pass of numpy uint64 arithmetic, from counter 1 as
numpy's first output block, splits each output word into its low and then
its high 32 bits, the order of Philox's ``next_uint32``, and applies
numpy's bounded-integer step, Lemire's multiply-and-reject (TOMACS 2019):
the index is ``u * size >> 32`` unless the low word of the product falls
below ``(2**32 - size) % size``. An index whose batch meets such a
rejection is drawn by ``child_generator(index)`` instead, which is numpy's
own ``Generator.integers`` and exact. The tests check the block draw
against ``Generator.integers``, so a numpy release that changed its
bounded-integer stream fails them rather than diverging silently. The
source keeps the last block draw of each stream family, for at most 32
families of at most 2**16 indices each (512 KiB), and hands out copies.

These streams are also unchanged by batched oracles and by the estimators'
per-slice draws: a finite dataset draws its batch with one ``integers``
call, and a generative draw fills its batch arrays sample by sample in the
generator-call order of a per-sample loop, so its batch drawn in
consecutive parts (one per slice of the chain walk) equals the batch drawn
whole. The levels share the source's one rekeyed generator, so a level's
last part is drawn before the next level's rekey.
"""

from __future__ import annotations

import operator

import numpy as np

STREAM_LEVEL_STRIDE = 2**20
STREAM_TAU_BASE = 2**40

# numpy's SeedSequence constants: a pool of four 32-bit words, entropy
# hashed in with the A constants, the output state hashed with the B ones
_MASK32 = 0xFFFFFFFF
_POOL_SIZE = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715

# keys are derived for aligned blocks of _BLOCK stream indices, and at most
# one block per stream family (index >> 20) of at most _FAMILIES families is kept
_BLOCK = 256
_FAMILIES = 32
# a block draw holds at most this many indices: batches of up to 256
_DRAW_ENTRIES = 2**16

# Philox4x64-10 as numpy runs it: each round multiplies counter words 0 and 2
# by these constants, and each round after the first adds the Weyl
# increments to the two key words
_PHILOX_ROUNDS = 10
_PHILOX_MUL = np.array([[0xD2E7470EE14C6C93], [0xCA5A826395121157]], dtype=np.uint64)
_PHILOX_WEYL = np.array([[0x9E3779B97F4A7C15], [0xBB67AE8584CAA73B]], dtype=np.uint64)
_U32 = np.uint64(32)
_LOW32 = np.uint64(_MASK32)
_PHILOX_MUL_HI, _PHILOX_MUL_LO = _PHILOX_MUL >> _U32, _PHILOX_MUL & _LOW32


def _hash_constants(init, mult, n):
    """The n (xor, multiply) constant pairs of n successive hash steps."""
    consts, h = [], init
    for _ in range(n):
        nxt = h * mult & _MASK32
        consts.append((h, nxt))
        h = nxt
    return consts, h


def _columns(consts):
    """(xor, multiply) constant pairs as two (n, 1) uint32 columns."""
    return np.array(consts, dtype=np.uint32).T[:, :, None]


# generate_state(2, np.uint64) hashes the four pool words with fixed constants
_STATE_X, _STATE_M = _columns(_hash_constants(_INIT_B, _MULT_B, _POOL_SIZE)[0])


def _nonnegative_int(value, what):
    try:
        n = operator.index(value)
    except TypeError:
        raise ValueError(f"{what} must be a non-negative integer, got {value!r}") from None
    if n < 0:
        raise ValueError(f"{what} must be a non-negative integer, got {n}")
    return n


def _words(n):
    """The little-endian 32-bit words of a non-negative int, as SeedSequence
    splits it (0 is one zero word)."""
    words = [n & _MASK32]
    n >>= 32
    while n:
        words.append(n & _MASK32)
        n >>= 32
    return words


def _absorb(pool, consts, word):
    """The pool after SeedSequence mixes one entropy word past the pool size
    into each pool word, with that word's (xor, multiply) hash constants.

    The pool is a (4, n) uint32 array and the word one int or n of them;
    uint32 array arithmetic wraps modulo 2**32, as SeedSequence's does,
    and without a warning.
    """
    x, m = _columns(consts)
    h = word ^ x
    h *= m
    h ^= h >> 16
    h *= _MIX_MULT_R
    h = _MIX_MULT_L * pool - h
    h ^= h >> 16
    return h


def _philox(keys, blocks):
    """The first ``blocks`` output blocks of Philox4x64-10 under each of the
    (n, 2) uint64 ``keys``, at counters 1 to ``blocks`` (numpy's Philox adds
    one to its zero counter before its first block): an (n, 4 * blocks)
    little-endian uint64 array, one row of outputs per key in stream order.

    Each round's 64 x 64-bit products are formed from 32-bit halves. uint64
    array arithmetic wraps modulo 2**64, as the C code's does, and without
    a warning.
    """
    n = len(keys)
    key = np.repeat(keys.T, blocks, axis=1)
    ctr = np.zeros((4, n * blocks), dtype=np.uint64)
    ctr[0] = np.tile(np.arange(1, blocks + 1, dtype=np.uint64), n)
    for r in range(_PHILOX_ROUNDS):
        if r:
            key += _PHILOX_WEYL
        x = ctr[::2]
        xh, xl = x >> _U32, x & _LOW32
        ll, lh = xl * _PHILOX_MUL_LO, xl * _PHILOX_MUL_HI
        hl, hi = xh * _PHILOX_MUL_LO, xh * _PHILOX_MUL_HI
        # the carry out of the middle 32 bits, then the high word
        ll >>= _U32
        ll += lh & _LOW32
        ll += hl & _LOW32
        ll >>= _U32
        hi += ll
        lh >>= _U32
        hi += lh
        hl >>= _U32
        hi += hl
        # (hi1 ^ c1 ^ k0, lo1, hi0 ^ c3 ^ k1, lo0)
        new = np.empty_like(ctr)
        np.bitwise_xor(hi[::-1], ctr[1::2], out=new[::2])
        new[::2] ^= key
        np.multiply(x[::-1], _PHILOX_MUL[::-1], out=new[1::2])
        ctr = new
    out = np.empty((n * blocks, 4), dtype="<u8")
    out.T[...] = ctr
    return out.reshape(n, 4 * blocks)


def _lemire(words, high):
    """numpy's bounded-integer step on (n, count) uint32 ``words`` for a
    ``high`` in [1, 2**32): the (n, count) int64 indices ``u * high >> 32``,
    and per row whether any word is rejected, its product's low 32 bits
    below ``(2**32 - high) % high``."""
    m = words.astype(np.uint64)
    m *= np.uint64(high)
    rejected = (m & _LOW32).min(axis=1) < (2**32 - high) % high
    m >>= _U32
    return m.view(np.int64), rejected


def _lookup(cache, index, tag, build, *args):
    """The entry of ``cache`` for the stream family of ``index`` (``index >>
    20``), rebuilt as ``build(*args)`` unless it was built for ``tag``. When
    a new family comes past _FAMILIES, the family first taken in is dropped."""
    family = index // STREAM_LEVEL_STRIDE
    entry = cache.get(family)
    if entry is None or entry[0] != tag:
        if entry is None and len(cache) == _FAMILIES:
            del cache[next(iter(cache))]
        entry = cache[family] = (tag, build(*args))
    return entry[1]


class RandomSource:
    """A seeded stream of randomness that can be split into substreams.

    A source is single-owner: it is never shared between concurrent runs,
    only split. ``split(i)`` derives an independent child stream; the child
    depends only on ``(seed, path + (i,))``, never on how much the parent
    has been consumed. The seed is below 2**64; it, the path entries and
    the split indices are non-negative integers.
    """

    def __init__(self, seed, path=()):
        seed = _nonnegative_int(seed, "seed")
        if seed >= 2**64:
            raise ValueError(f"seed must be a 64-bit unsigned integer, got {seed}")
        self.seed = seed
        self.path = tuple(_nonnegative_int(p, "stream path entry") for p in path)
        self._generator = None
        self._child = None  # (pool, hash constant, Generator)
        self._blocks = {}  # stream family -> (first index, keys) of its block
        # stream family -> ((first index, high, count), (indices, rejected))
        self._draws = {}

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

    def _child_pool(self):
        """SeedSequence's entropy pool after the seed and the path words, as
        a (4, 1) uint32 array, and the running hash constant.

        numpy pads the seed words to the pool size only when a spawn key is
        given; the pool is the same either way, as a missing word hashes as
        a zero. The constant has advanced once per seed word (four), twelve
        times in the pool's own mixing and four times per path word.
        """
        ss = np.random.SeedSequence(self.seed, spawn_key=self.path)
        words = sum(len(_words(p)) for p in self.path)
        steps = _POOL_SIZE * (_POOL_SIZE + words)
        return ss.pool.reshape(_POOL_SIZE, 1), _INIT_A * pow(_MULT_A, steps, 2**32) & _MASK32

    def _block_keys(self, start):
        """The Philox keys of ``split(start + j)`` for j < _BLOCK, as a
        (_BLOCK, 2) uint64 array; ``start`` is a multiple of _BLOCK.

        Only the lowest 32-bit word of an index varies within the block,
        and it is the first one hashed in, so the pool becomes one column
        per index; the higher words of an index of 2**32 or above continue
        the hash chain, broadcast over the columns.
        """
        if self._child is None:
            gen = np.random.Generator(np.random.Philox(key=0))
            self._child = (*self._child_pool(), gen)
        pool, h, _ = self._child
        low, *high = _words(start)
        for word in (low + np.arange(_BLOCK, dtype=np.uint32), *high):
            consts, h = _hash_constants(h, _MULT_A, _POOL_SIZE)
            pool = _absorb(pool, consts, word)
        # generate_state's hash, written as little-endian words: each row's
        # four words read as its two uint64 key words on any platform
        keys = np.empty((_BLOCK, _POOL_SIZE), dtype="<u4")
        out = keys.T
        np.multiply(pool ^ _STATE_X, _STATE_M, out=out)
        out ^= out >> 16
        return keys.view("<u8")

    def _child_key(self, index):
        """The Philox key of ``split(index)``: the two uint64 words of
        ``SeedSequence(seed, spawn_key=path + (index,)).generate_state(2, np.uint64)``.

        It is read from the keys of the aligned block of _BLOCK indices
        around ``index``, derived at once. The source keeps the last block
        of each stream family (``index >> 20``) that it reached, for at
        most _FAMILIES (32) families, dropping the family it first took in
        when a new one comes past the cap: at most 32 blocks of 4 KiB,
        whatever the run's length or access pattern.
        """
        index = _nonnegative_int(index, "stream index")
        start = index - index % _BLOCK
        keys = _lookup(self._blocks, index, start, self._block_keys, start)
        return tuple(keys[index - start].tolist())

    def _draw_block(self, start, high, count):
        """The ``_lemire`` (indices, rejected) pair of ``count`` draws below
        ``high`` on each stream of the block from ``start``: its first
        ``count`` uint32 outputs, eight per Philox output block, under the
        keys of the key cache."""
        keys = _lookup(self._blocks, start, start, self._block_keys, start)
        words = _philox(keys, -(-count // 8)).view("<u4")[:, :count]
        return _lemire(words, high)

    def _block_integers(self, index, high, count):
        """``split(index).generator.integers(0, high, size=count)`` for an int
        ``high`` in [1, 2**32) and an int ``count`` in [1, 256], as a new
        array.

        It is read from the block draw of the aligned block of _BLOCK
        indices around ``index``, unless that index's draw met a rejection,
        which ``child_generator(index)`` then draws. The source keeps the
        last block draw of each stream family that it reached, for at most
        _FAMILIES (32) families, dropping the family it first took in when a
        new one comes past the cap: at most 32 draws of _DRAW_ENTRIES
        (2**16) int64 indices, whatever the run's length or access pattern.
        """
        start = index - index % _BLOCK
        indices, rejected = _lookup(self._draws, index, (start, high, count),
                                    self._draw_block, start, high, count)
        if rejected[index - start]:
            return self.child_generator(index).integers(0, high, size=count)
        return indices[index - start].copy()

    def child_generator(self, index):
        """A Generator drawing exactly the stream of ``split(index).generator``.

        The source owns one Philox generator and rekeys it on every call,
        so the returned Generator is valid only until the next call on
        this source. A call costs a key lookup (a block's derivation once
        per 256 consecutive indices of a family) and the state set.
        """
        key = self._child_key(index)
        gen = self._child[-1]
        gen.bit_generator.state = {
            "bit_generator": "Philox",
            "state": {"counter": (0, 0, 0, 0), "key": key},
            "buffer": (0, 0, 0, 0),
            "buffer_pos": 4,
            "has_uint32": 0,
            "uinteger": 0,
        }
        return gen

    def __repr__(self):
        return f"RandomSource(seed={self.seed}, path={self.path})"


class _BlockGenerator:
    """A stand-in for ``source.child_generator(index)`` that serves a first
    call ``integers(0, high, size=count)`` from the source's block draw,
    for a Python int ``high`` in [1, 2**32) and a Python int ``count`` of at
    most _DRAW_ENTRIES // _BLOCK (256) at the default dtype and an excluded
    endpoint. Any other call, or any call after it, goes to
    ``child_generator(index)``, moved past the served draw by drawing it
    again, so the stand-in draws the stream of ``child_generator(index)``
    call for call. Like that generator, it is valid until the next draw
    on the source.
    """

    __slots__ = ("_source", "_index", "_served", "_gen")

    def __init__(self, source, index):
        self._source, self._index = source, index
        self._served = self._gen = None

    def integers(self, low, high=None, size=None, dtype=np.int64, endpoint=False):
        if (self._served is None and self._gen is None and type(low) is int and low == 0
                and type(high) is int and 0 < high < 2**32 and type(size) is int
                and 0 < size * _BLOCK <= _DRAW_ENTRIES and dtype is np.int64
                and endpoint is False):
            self._served = (high, size)
            return self._source._block_integers(self._index, high, size)
        return self._generator().integers(low, high, size, dtype, endpoint)

    def __getattr__(self, name):
        return getattr(self._generator(), name)

    def _generator(self):
        if self._gen is None:
            self._gen = self._source.child_generator(self._index)
            if self._served is not None:
                high, size = self._served
                self._gen.integers(0, high, size=size)
        return self._gen
