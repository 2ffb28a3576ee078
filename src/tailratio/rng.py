"""Deterministic random-stream construction.

All randomness in the library flows through numpy's PCG64 generator seeded
from an explicit 64-bit integer.  Independent substreams (one per Monte
Carlo trial or experiment replication) are derived by feeding the base seed
together with the substream index into ``numpy.random.SeedSequence``, so a
given (seed, index) pair always yields the same stream no matter how many
workers run or in which order trials execute.
"""

import numpy as np

from .errors import ParameterDomainError

_SEED_MAX = 2**64


def check_seed(seed):
    """Validate and return a 64-bit unsigned seed."""
    seed = int(seed)
    if not 0 <= seed < _SEED_MAX:
        raise ParameterDomainError(
            f"seed must be a 64-bit unsigned integer, got {seed}"
        )
    return seed


def substream(seed, *index):
    """PCG64 generator for substream `index` (zero or more ints) of `seed`.

    With no index this is the base stream of `seed`.

    Distinct indices give statistically independent streams; the mapping is
    pure, so parallel callers may derive the same substream independently.
    """
    return np.random.default_rng(
        np.random.SeedSequence(entropy=check_seed(seed), spawn_key=tuple(index))
    )
