import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pmvr.rng import _FAMILIES, STREAM_LEVEL_STRIDE, RandomSource

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
