"""Deterministic random-stream construction.

All randomness in the library flows through numpy's PCG64 generator seeded
from an explicit 64-bit integer.  Substream `index` of `seed` (one per
Monte Carlo trial or experiment replication) is the PCG64 stream that
``numpy.random.SeedSequence(seed, spawn_key=(index,))`` seeds, bit for bit,
so a given (seed, index) pair always yields the same stream no matter how
many workers run or in which order trials execute.  The index is an
integer in 0..2**64 - 1, like the seed.

Building ``Generator(PCG64(SeedSequence(seed, spawn_key=(i,))))`` takes
10 us, 4.4 us of it in SeedSequence: more than twice a whole 4.2 us trial
of a 50-value half-Cauchy Monte Carlo (2-vCPU Xeon, Python 3.11.7, numpy
2.4.6; best of 3 ``timeit`` runs over 20000 indices, and of 7 runs of
10**5 trials).  So the four words SeedSequence hands PCG64 are computed
here instead, for 1024 consecutive indices at once in numpy uint64
arithmetic, from the pool of ``SeedSequence(seed)`` (numpy's own mixing of
the seed) through SeedSequence's hashmix/mix over the index's 32-bit words
and its output hash.  A hash constant depends only on how many words were
hashed before it.  The two latest blocks are cached, and a substream costs
1.8 us, 0.95 us of it constructing PCG64 and its Generator.  numpy is
imported by the helpers that hash a block or build the generator, so
importing this module loads no numpy.
"""

from functools import cache, lru_cache

from .errors import check_int

# indices hashed together; 2**32 is a multiple, so every index of a block
# has the same number of 32-bit words
_BLOCK = 1024

# SeedSequence's hash constants (numpy/random/bit_generator.pyx)
_INIT_A, _MULT_A, _INIT_B, _MULT_B = 0x43B0D7E5, 0x931E8875, 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_MASK = 0xFFFFFFFF


def check_seed(seed):
    """Validate and return a 64-bit unsigned seed."""
    return check_int(seed, "seed", 0, 2**64 - 1)


def _hash_constants(first, mult, skip, count):
    """Hash constants first * mult**k mod 2**32 for k = skip.., as a column."""
    import numpy as np

    h = [first * pow(mult, k, 2**32) & _MASK for k in range(skip, skip + count)]
    return np.array(h, dtype=np.uint64)[:, None]


@lru_cache(maxsize=2)
def _block_state(seed, block):
    """The words SeedSequence(seed, spawn_key=(i,)) hands PCG64.

    One read-only uint64 row of 4 for each i in block*1024 .. block*1024 + 1023.
    """
    import numpy as np

    pool = np.random.SeedSequence(seed).pool.astype(np.uint64)[:, None]
    index = np.arange(block * _BLOCK, (block + 1) * _BLOCK, dtype=np.uint64)
    words = [index & _MASK] + ([index >> 32] if block * _BLOCK >> 32 else [])
    # the pool's 4 words and their 12 cross mixes have taken 16 hash constants
    h = _hash_constants(_INIT_A, _MULT_A, 16, 4 * len(words) + 1)
    for k, word in enumerate(words):  # hashmix(word), mixed into each pool word
        y = (word ^ h[4 * k : 4 * k + 4]) * h[4 * k + 1 : 4 * k + 5] & _MASK
        y ^= y >> 16
        pool = _MIX_MULT_L * pool - _MIX_MULT_R * y & _MASK
        pool ^= pool >> 16
    h = _hash_constants(_INIT_B, _MULT_B, 0, 9)
    state = (pool[[0, 1, 2, 3, 0, 1, 2, 3]] ^ h[:8]) * h[1:] & _MASK
    state ^= state >> 16
    rows = (state[0::2] | state[1::2] << 32).T.copy()  # little-endian word pairs
    rows.flags.writeable = False
    return rows


@cache
def _generator():
    """The constructor of the Generator that runs PCG64 on a row of words.

    Defined on first use: importing numpy.random loads 19 more modules and
    adds 16 ms and 5.8 MB of peak RSS to `import tailratio.cli`, which every
    command pays, also the ones that draw nothing.
    """
    import numpy as np
    from numpy.random import PCG64, Generator
    from numpy.random.bit_generator import ISeedSequence

    class StateSeed(ISeedSequence):
        def __init__(self, state):
            self.state = state

        def generate_state(self, n_words, dtype=np.uint32):
            return self.state  # PCG64 asks for 4 uint64 words

    return lambda state: Generator(PCG64(StateSeed(state)))


def substream(seed, index=None):
    """PCG64 generator for substream `index` of `seed`.

    With no index this is the base stream of `seed`.  The index, like the
    seed, is an integer in 0..2**64 - 1, else ParameterDomainError.

    Distinct indices give statistically independent streams; the mapping is
    pure, so parallel callers may derive the same substream independently.
    """
    seed = check_seed(seed)
    if index is None:
        import numpy as np

        return np.random.default_rng(np.random.SeedSequence(seed))
    block, row = divmod(check_int(index, "index", 0, 2**64 - 1), _BLOCK)
    return _generator()(_block_state(seed, block)[row])
