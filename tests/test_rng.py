import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pmvr.rng import STREAM_TAU_BASE, RandomSource


def plain_state(gen):
    """A generator's bit-generator state with its arrays as lists."""
    state = gen.bit_generator.state
    return {
        **state,
        "state": {k: v.tolist() for k, v in state["state"].items()},
        "buffer": state["buffer"].tolist(),
    }


def seed_sequence_generator(seed, path, index):
    """numpy's own Philox generator for the spawn key ``path + (index,)``."""
    key = np.random.SeedSequence(seed, spawn_key=path + (index,))
    return np.random.Generator(np.random.Philox(key))


def test_split_generators_are_keyed_by_the_seed_sequence_of_the_path():
    src = RandomSource(2**63 + 5, (7, 2**33))
    key = np.random.SeedSequence(2**63 + 5, spawn_key=(7, 2**33, 4))
    want = np.random.Generator(np.random.Philox(key))
    assert plain_state(src.split(4).generator) == plain_state(want)
    # a split depends on its path only: a fresh split restarts the stream
    src.split(4).generator.random(3)
    assert plain_state(src.split(4).generator) == plain_state(want)


def test_level_streams_are_split_generators_kept_across_calls():
    src = RandomSource(3)
    first = src.level(1)
    assert src.level(1) is first and src.level(2) is not first
    assert plain_state(first.generator) == plain_state(src.split(1).generator)
    drawn = first.generator.integers(0, 10, size=5)
    assert np.array_equal(src.split(1).generator.integers(0, 10, size=5), drawn)
    # the next call continues the stream; a new source with the seed restarts it
    fresh = RandomSource(3).split(1).generator
    fresh.integers(0, 10, size=5)
    assert np.array_equal(src.level(1).generator.random(4), fresh.random(4))
    assert plain_state(RandomSource(3).level(1).generator) == plain_state(src.split(1).generator)
    # the level streams never touch the source's own generator
    assert src._generator is None


@pytest.mark.parametrize("index", [2**32 - 1, 2**32, 2**32 + 1, 2**40, 2**64 - 1, 2**64, 2**200])
def test_wide_indices_are_derived_exactly(index):
    src = RandomSource(2**63 + 5, (7, 2**33))
    want = seed_sequence_generator(src.seed, src.path, index)
    assert src.split(index).path[-1] == index
    assert plain_state(src.split(index).generator) == plain_state(want)


# the run's streams: levels 1..3 and the first three tau splits
RUN_INDICES = [1, 2, 3, STREAM_TAU_BASE, STREAM_TAU_BASE + 1, STREAM_TAU_BASE + 2]


@pytest.mark.parametrize("seed", [0, 1, 2**63 + 5, 2**64 - 1])
@pytest.mark.parametrize("path", [(), (3,), (7, 2**33)])
def test_every_level_and_tau_stream_is_the_seed_sequence_generator(seed, path):
    src = RandomSource(seed, path)
    for index in RUN_INDICES:
        want = plain_state(seed_sequence_generator(seed, path, index))
        assert plain_state(src.split(index).generator) == want
        if index < STREAM_TAU_BASE:
            assert plain_state(src.level(index).generator) == want


@pytest.mark.parametrize("kind", [np.int64, np.uint64, np.uint32, np.int32])
@pytest.mark.parametrize("index", [0, 255, 256, 2**20 + 1, 2**31 - 1])
def test_numpy_integer_indices_give_the_python_int_key(kind, index):
    src = RandomSource(11, (5,))
    child = src.split(kind(index))
    assert child.path == (5, index) and all(type(p) is int for p in child.path)
    assert plain_state(child.generator) == plain_state(seed_sequence_generator(11, (5,), index))


# one draw per entry: an index batch, normals, or an odd count of integers
# that leaves half a uint32 pair buffered in the generator
DRAWS = st.lists(
    st.tuples(st.integers(1, 3), st.sampled_from(["integers", "normal", "odd"])),
    min_size=1, max_size=12,
)


def draw(gen, kind):
    if kind == "integers":
        return gen.integers(0, 1100, size=8)
    if kind == "normal":
        return gen.normal(0.0, 0.5, size=(2, 3))
    return gen.integers(0, 2**31 - 1, size=3, dtype=np.int32)


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 2**64 - 1), draws=DRAWS)
def test_interleaved_level_draws_continue_one_generator_per_level(seed, draws):
    """Draws from the levels of one source, in any interleaving, are each
    level's draws from its own fresh split generator in order."""
    src = RandomSource(seed)
    fresh = {i: src.split(i).generator for i in (1, 2, 3)}
    for i, kind in draws:
        assert np.array_equal(draw(src.level(i).generator, kind), draw(fresh[i], kind))


def test_numpy_integers_are_accepted_as_python_ints():
    src = RandomSource(np.uint64(9), (np.int32(2),))
    assert src.seed == 9 and src.path == (2,)
    assert type(src.seed) is int and all(type(p) is int for p in src.path)
    assert src.split(np.int64(4)).path == (2, 4)


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
        lambda: RandomSource(1).level(-1),
        lambda: RandomSource(1).level(2.7),
        # a bool is not taken as 0 or 1
        lambda: RandomSource(True),
        lambda: RandomSource(1, path=(True,)),
        lambda: RandomSource(1).split(False),
        lambda: RandomSource(1).level(True),
    ],
)
def test_bad_seeds_paths_and_indices_raise_value_error(build):
    with pytest.raises(ValueError, match="non-negative integer|64-bit"):
        build()
