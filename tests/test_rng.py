"""Substreams: the PCG64 stream that SeedSequence(seed, spawn_key=(index,)) seeds.

substream hashes the index 1024 values at a time; these tests hold it to
numpy's own SeedSequence, bit for bit, across block edges, 32-bit word
boundaries of the seed and of the index, and threads.
"""

import random
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tailratio.rng import _block_state, substream

SEEDS = [0, 1, 2**32 - 1, 2**32, 2**64 - 1]
# indices of one 32-bit word and of two, at block edges and word boundaries
INDICES = {1: [0, 1023, 1024, 2047, 2**32 - 1],
           2: [2**32, 2**32 + 1023, 2**32 + 1024, 2**64 - 1025, 2**64 - 1]}


def numpy_stream(seed, index):
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(index,)))


def assert_same_stream(seed, index):
    got, want = substream(seed, index), numpy_stream(seed, index)
    assert got.bit_generator.state == want.bit_generator.state, (seed, index)
    assert np.array_equal(got.random(3), want.random(3))


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("words", [1, 2])
def test_grid_matches_seed_sequence(seed, words):
    for index in INDICES[words]:
        assert_same_stream(seed, index)


# indices near block edges and 32-bit word boundaries, or anywhere
indices = st.one_of(
    st.integers(0, 2**64 - 1),
    st.sampled_from([0, 2**32 - 2**10, 2**64 - 2**11]).flatmap(
        lambda base: st.integers(base, base + 2**11 - 1)),
)


@given(seed=st.integers(0, 2**64 - 1), index=indices)
@settings(max_examples=300)
def test_matches_seed_sequence(seed, index):
    assert_same_stream(seed, index)


def test_no_index_is_the_seed_stream():
    for seed in SEEDS:
        want = np.random.default_rng(np.random.SeedSequence(seed))
        assert substream(seed).bit_generator.state == want.bit_generator.state


def test_one_index_only():
    with pytest.raises(TypeError):
        substream(1, 2, 3)


def test_threads_agree_with_serial():
    # 5 blocks, one of them of two-word indices, built concurrently
    index = [b * 1024 + r for b in (0, 1, 7, 2**22, 2**54 - 1) for r in (0, 5, 1023)]
    random.Random(2).shuffle(index)
    _block_state.cache_clear()
    with ThreadPoolExecutor(8) as pool:
        states = list(pool.map(lambda i: substream(9, i).bit_generator.state, index))
    assert states == [numpy_stream(9, i).bit_generator.state for i in index]


def test_cached_block_is_read_only():
    substream(3, 5)
    with pytest.raises(ValueError, match="read-only"):
        _block_state(3, 0)[5, 0] = 0
