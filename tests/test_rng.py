import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pmvr.rng import (
    _DRAW_ENTRIES,
    _FAMILIES,
    STREAM_LEVEL_STRIDE,
    RandomSource,
    _BlockGenerator,
    _lemire,
    _philox,
)

SEEDS = st.integers(0, 2**64 - 1)
# path entries and indices of 2**32 and above hash as more than one word
WORDS = st.one_of(st.integers(0, 2**32 - 1), st.integers(2**32, 2**96))
PATHS = st.lists(WORDS, max_size=3).map(tuple)
INDICES = st.one_of(
    st.integers(0, 3 * STREAM_LEVEL_STRIDE),
    st.integers(0, 2**32 - 1),
    st.integers(2**32, 2**96),
)


def plain_state(gen):
    """A generator's bit-generator state with its arrays as lists."""
    state = gen.bit_generator.state
    return {
        **state,
        "state": {k: v.tolist() for k, v in state["state"].items()},
        "buffer": state["buffer"].tolist(),
    }


def seed_sequence_key(seed, path, index):
    ss = np.random.SeedSequence(seed, spawn_key=path + (index,))
    return tuple(int(w) for w in ss.generate_state(2, np.uint64))


@settings(max_examples=400, deadline=None)
@given(seed=SEEDS, path=PATHS, index=INDICES)
def test_child_key_equals_the_seed_sequence_key(seed, path, index):
    assert RandomSource(seed, path)._child_key(index) == seed_sequence_key(seed, path, index)


@pytest.mark.parametrize("index", [2**32 - 1, 2**32, 2**32 + 1, 2**40, 2**64 - 1, 2**64, 2**200])
def test_wide_indices_are_derived_exactly(index):
    src = RandomSource(2**63 + 5, (7, 2**33))
    assert src._child_key(index) == seed_sequence_key(src.seed, src.path, index)
    assert plain_state(src.child_generator(index)) == plain_state(src.split(index).generator)


# one draw of the single-index sampler per sample: a matrix, then a scalar;
# odd integer counts leave half a uint32 pair buffered in the generator
DRAWS = st.lists(
    st.sampled_from(["integers", "normal", "standard_normal", "matrix"]), min_size=1, max_size=6
)


def draw(gen, kind, count):
    if kind == "integers":
        return (gen.integers(0, 1100, size=2 * count + 1),)
    if kind == "normal":
        return (gen.normal(0.0, 0.3),)
    if kind == "standard_normal":
        return (gen.standard_normal(count),)
    return gen.normal(0.0, 0.5, size=(2, count)), gen.normal(0.0, 0.1)


@settings(max_examples=100, deadline=None)
@given(
    seed=SEEDS,
    path=PATHS,
    steps=st.lists(st.tuples(INDICES, DRAWS), min_size=1, max_size=5),
    count=st.integers(1, 7),
)
def test_rekeyed_draws_equal_fresh_split_generators(seed, path, steps, count):
    src = RandomSource(seed, path)
    for index, kinds in steps:
        gen = src.child_generator(index)
        fresh = src.split(index).generator
        for kind in kinds:
            for got, want in zip(draw(gen, kind, count), draw(fresh, kind, count)):
                assert np.array_equal(got, want)


def test_child_generator_is_one_reused_generator_restarted_per_call():
    src = RandomSource(3)
    a = src.child_generator(STREAM_LEVEL_STRIDE + 1)
    first = a.integers(0, 10, size=5)
    b = src.child_generator(STREAM_LEVEL_STRIDE + 1)
    assert a is b
    assert np.array_equal(b.integers(0, 10, size=5), first)
    # the child pair never touches the source's own generator
    assert src._generator is None


def test_numpy_integers_are_accepted_as_python_ints():
    src = RandomSource(np.uint64(9), (np.int32(2),))
    assert src.seed == 9 and src.path == (2,)
    assert type(src.seed) is int and all(type(p) is int for p in src.path)
    assert src.split(np.int64(4)).path == (2, 4)
    assert src._child_key(np.uint32(4)) == seed_sequence_key(9, (2,), 4)


@pytest.mark.parametrize(
    "build",
    [
        lambda: RandomSource(-1),
        lambda: RandomSource(2**64),
        lambda: RandomSource(1.5),
        lambda: RandomSource(3.0),
        lambda: RandomSource("3"),
        lambda: RandomSource(1, path=(-1,)),
        lambda: RandomSource(1, path=(2.0,)),
        lambda: RandomSource(1).split(2.7),
        lambda: RandomSource(1).split(-1),
        lambda: RandomSource(1).split(None),
        lambda: RandomSource(1).child_generator(-1),
        lambda: RandomSource(1).child_generator(2.7),
    ],
)
def test_bad_seeds_paths_and_indices_raise_value_error(build):
    with pytest.raises(ValueError, match="non-negative integer|64-bit"):
        build()


# indices whose aligned 256-index blocks are checked key by key: two whole
# blocks from 0, both sides of a level boundary, both sides of the 32-bit
# word boundary and a tau-stream index
BLOCK_INDICES = [*range(512), 2**20 - 1, 2**20 + 1, 2**32 - 1, 2**32, 2**32 + 255, 2**40 + 7]


@pytest.mark.parametrize("seed", [0, 1, 2**63 + 5, 2**64 - 1])
@pytest.mark.parametrize("path", [(), (3,), (7, 2**33)])
def test_every_key_of_whole_blocks_equals_the_seed_sequence_key(seed, path):
    src = RandomSource(seed, path)
    for start in sorted({i - i % 256 for i in BLOCK_INDICES}):
        for index in range(start, start + 256):
            assert src._child_key(index) == seed_sequence_key(seed, path, index)


@pytest.mark.parametrize("kind", [np.int64, np.uint64, np.uint32, np.int32])
@pytest.mark.parametrize("index", [0, 255, 256, 2**20 + 1, 2**31 - 1])
def test_numpy_integer_indices_give_the_python_int_key(kind, index):
    src = RandomSource(11, (5,))
    key = src._child_key(kind(index))
    assert key == seed_sequence_key(11, (5,), index)
    assert type(key) is tuple and all(type(w) is int for w in key)


def test_rekeys_back_and_forth_across_block_boundaries_match_split_generators():
    src = RandomSource(2**63 + 5, (7,))
    level = STREAM_LEVEL_STRIDE
    indices = [255, 256, 255, 0, 511, level + 255, 256, level + 256, level + 255,
               2**32 - 1, 2**32, 2**32 - 1, 2 * level, level + 256, 2**40 + 7, 255]
    for index in indices:
        gen = src.child_generator(index)
        fresh = src.split(index).generator
        assert plain_state(gen) == plain_state(fresh)
        assert np.array_equal(gen.integers(0, 1100, size=9), fresh.integers(0, 1100, size=9))


def test_scattered_indices_leave_the_key_cache_within_its_bound():
    src = RandomSource(4)
    picks = np.random.default_rng(0)
    families = picks.integers(0, 3 * _FAMILIES, size=10_000)
    indices = (families * STREAM_LEVEL_STRIDE + picks.integers(0, STREAM_LEVEL_STRIDE, size=10_000)).tolist()
    indices[::97] = [2**40 + i for i in range(len(indices[::97]))]
    for n, index in enumerate(indices):
        key = src._child_key(index)
        if n % 250 == 0:
            assert key == seed_sequence_key(4, (), index)
        assert len(src._blocks) <= _FAMILIES
    for family, (start, keys) in src._blocks.items():
        assert start % 256 == 0 and start // STREAM_LEVEL_STRIDE == family
        assert keys.shape == (256, 2) and keys.dtype == np.uint64
    assert sum(keys.nbytes for _, keys in src._blocks.values()) <= _FAMILIES * 4096


# --- finite batches drawn a key block at a time ------------------------------

HIGHS = [1, 2, 1100, 2**31 + 5, 2**32 - 1]
COUNTS = [1, 7, 8, 9, 100, 256]
# an index at 255, 256 or 257 past the start of a block, or anywhere in it;
# blocks from 2**24 on hold indices of 2**32 and above
BLOCK_STARTS = st.one_of(st.integers(0, 3 * 4096), st.integers(2**24, 2**88)).map(lambda b: 256 * b)
OFFSETS = st.one_of(st.sampled_from([255, 256, 257]), st.integers(0, 511))


class CountingSource(RandomSource):
    """A source that records the indices its rekeyed generator is asked for."""

    def __init__(self, seed, path=()):
        super().__init__(seed, path)
        self.rekeyed = []

    def child_generator(self, index):
        self.rekeyed.append(index)
        return super().child_generator(index)


def lemire_rejects(words, high):
    """numpy's bounded-integer rule, one Python int at a time: whether a
    draw below ``high`` rejects any of the uint32 ``words`` it reads."""
    threshold = (2**32 - high) % high
    return any((int(u) * high) & 0xFFFFFFFF < threshold for u in words)


def raw_words(key, count):
    """The first ``count`` uint32 outputs of numpy's Philox under ``key``:
    each uint64 output split low half first."""
    raw = np.random.Philox(key=np.array(key, dtype=np.uint64)).random_raw(-(-count // 2))
    return [int(w) >> shift & 0xFFFFFFFF for w in raw for shift in (0, 32)][:count]


@settings(max_examples=150, deadline=None)
@given(seed=SEEDS, path=PATHS, start=BLOCK_STARTS, offset=OFFSETS,
       high=st.sampled_from(HIGHS), count=st.sampled_from(COUNTS))
def test_block_draws_equal_numpys_bounded_integers(seed, path, start, offset, high, count):
    """The stand-in's first ``integers`` call gives the split generator's
    draw, for its index and its neighbours on the cached block; an index is
    rekeyed exactly when numpy's own rule rejects one of its words."""
    src = CountingSource(seed, path)
    index = start + offset
    for i in sorted({index, index + 1, max(index - 1, 0)}):
        got = _BlockGenerator(src, i).integers(0, high, size=count)
        want = src.split(i).generator.integers(0, high, size=count)
        assert got.dtype == want.dtype and got.flags.writeable
        assert np.array_equal(got, want)
        rejected = lemire_rejects(raw_words(seed_sequence_key(seed, path, i), count), high)
        assert src.rekeyed.count(i) == rejected


@pytest.mark.parametrize("high", [1100, 2**31 + 5])
def test_a_whole_block_draws_exactly_and_rekeys_only_its_rejected_indices(high):
    """Over all 256 indices of a block, 2**31 + 5 rejects a word of most
    draws of seven and 1100 of almost none; each rejected index, and only
    it, is drawn by the rekeyed generator."""
    src = CountingSource(2**63 + 5, (7,))
    start = STREAM_LEVEL_STRIDE + 256
    for index in range(start, start + 256):
        got = _BlockGenerator(src, index).integers(0, high, size=7)
        assert np.array_equal(got, src.split(index).generator.integers(0, high, size=7))
    ((tag, (_, rejected)),) = src._draws.values()
    assert tag == (start, high, 7)
    assert src.rekeyed == [start + j for j in np.flatnonzero(rejected)]
    assert (len(src.rekeyed) > 200) == (high == 2**31 + 5)


@settings(max_examples=50, deadline=None)
@given(key=st.tuples(st.integers(0, 2**64 - 1), st.integers(0, 2**64 - 1)),
       blocks=st.integers(1, 5))
def test_the_philox_pass_equals_numpys_philox_outputs(key, blocks):
    keys = np.array([key, (key[1], key[0]), (0, 0)], dtype=np.uint64)
    got = _philox(keys, blocks)
    for row, k in zip(got, keys):
        assert np.array_equal(row, np.random.Philox(key=k).random_raw(4 * blocks))


@pytest.mark.parametrize("high", [3, 1101, 2**31 + 5, 2**32 - 1])
def test_lemire_rejects_exactly_below_numpys_threshold(high):
    """Words whose product with ``high`` leaves each low word around the
    threshold (2**32 - high) % high: below it the draw is rejected, at it
    and above it is not; the index is the product's high word."""
    threshold = (2**32 - high) % high
    inverse = pow(high, -1, 2**32)
    lows = [low for low in (threshold - 1, threshold, threshold + 1, 0) if low >= 0]
    for low in lows:
        word = low * inverse % 2**32
        indices, rejected = _lemire(np.array([[word]], dtype=np.uint32), high)
        assert bool(rejected[0]) == (low < threshold) == lemire_rejects([word], high), low
        assert indices.dtype == np.int64 and indices[0, 0] == word * high >> 32


def test_handed_out_batches_are_copies_of_the_block_draw():
    src = RandomSource(12)
    index = 2 * STREAM_LEVEL_STRIDE + 3
    first = _BlockGenerator(src, index).integers(0, 1100, size=8)
    want = first.copy()
    first[:] = -1
    again = _BlockGenerator(src, index).integers(0, 1100, size=8)
    assert np.array_equal(again, want)
    ((_, (indices, _)),) = src._draws.values()
    assert not np.shares_memory(again, indices) and np.array_equal(indices[3], want)


# call sequences on one stand-in, each compared call for call with a fresh
# split generator (None: compare the bit generator's state), and whether the
# first call is served from a block draw: only integers(0, int, size=int <= 256)
SERVED = ("integers", (0, 1100), {"size": 9})
CALLS = {
    "served, then more": (True, [SERVED, ("normal", (0.0, 0.3), {}), SERVED]),
    "served twice": (True, [SERVED, SERVED]),
    "served, then the state": (True, [SERVED, None]),
    "over 256": (False, [("integers", (0, 1100), {"size": 257})]),
    "low 1": (False, [("integers", (1, 1100), {"size": 5})]),
    "numpy high": (False, [("integers", (0, np.int64(1100)), {"size": 5})]),
    "int32": (False, [("integers", (0, 1100), {"size": 5, "dtype": np.int32})]),
    "endpoint": (False, [("integers", (0, 1100), {"size": 5, "endpoint": True})]),
    "high 2**32": (False, [("integers", (0, 2**32), {"size": 5})]),
    "tuple size": (False, [("integers", (0, 1100), {"size": (2, 3)})]),
    "random first": (False, [("random", (4,), {}), SERVED]),
}


@pytest.mark.parametrize("name", sorted(CALLS))
def test_the_stand_in_draws_the_rekeyed_stream_call_for_call(name):
    served, calls = CALLS[name]
    src = RandomSource(2**63 + 5, (7,))
    index = STREAM_LEVEL_STRIDE + 300
    stand_in = _BlockGenerator(src, index)
    fresh = src.split(index).generator
    for call in calls:
        if call is None:
            assert plain_state(stand_in) == plain_state(fresh)
            continue
        method, args, kwargs = call
        got = getattr(stand_in, method)(*args, **kwargs)
        want = getattr(fresh, method)(*args, **kwargs)
        assert np.array_equal(got, want) and np.asarray(got).dtype == np.asarray(want).dtype
    assert bool(src._draws) == served


def test_scattered_draws_leave_the_draw_cache_within_its_bound():
    src = RandomSource(4)
    picks = np.random.default_rng(1)
    for n in range(300):
        index = int(picks.integers(0, 3 * _FAMILIES)) * STREAM_LEVEL_STRIDE + int(
            picks.integers(1, STREAM_LEVEL_STRIDE))
        high = int(picks.choice([2, 1100, 2**31 + 5]))
        count = int(picks.choice([1, 9, 256]))
        got = _BlockGenerator(src, index).integers(0, high, size=count)
        if n % 25 == 0:
            assert np.array_equal(got, src.split(index).generator.integers(0, high, size=count))
        assert len(src._draws) <= _FAMILIES and len(src._blocks) <= _FAMILIES
    for family, ((start, high, count), (indices, rejected)) in src._draws.items():
        assert start % 256 == 0 and start // STREAM_LEVEL_STRIDE == family
        assert indices.shape == (256, count) and rejected.shape == (256,)
    assert sum(i.size for _, (i, _) in src._draws.values()) <= _FAMILIES * _DRAW_ENTRIES
