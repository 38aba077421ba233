import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pmvr.rng import STREAM_LEVEL_STRIDE, RandomSource

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
