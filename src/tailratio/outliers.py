"""Order-statistic outlier machinery.

Two detectors live here.  The ratio detector declares the largest magnitude
an outlier of order 1/kappa when the second-largest magnitude is at most
kappa times the largest.  The classical k-sigma rule (mean plus k population
standard deviations) is included as the baseline it is meant to replace:
a single huge observation inflates s enough to hide itself, which the ratio
detector is immune to.

All operations are pure functions over immutable sequences of finite
reals; a NaN or infinite value raises ParameterDomainError naming its index.
Every kernel walks its input in blocks of at most 2**13 values (64 KiB), or of
max(1, 2**13 // n) whole samples of n, so a call holds its input once plus one block.
"""

from typing import NamedTuple

import numpy as np

from .errors import (
    AccuracyError, InsufficientDataError, ParameterDomainError,
    check_int, check_kappa, check_real,
)

_FLOAT_MAX = np.finfo(float).max

# the kernels here, and mc_probability, work in blocks of at most this many values
_BLOCK_VALUES = 2**13


def _block_rows(n):
    """Samples of n values a block: as many as fit in _BLOCK_VALUES, at least one."""
    return max(1, _BLOCK_VALUES // n)


class TopTwo(NamedTuple):
    """Largest and second-largest magnitudes with their source indices."""

    max_magnitude: float
    second_magnitude: float
    max_index: int
    second_index: int


class OutlierVerdict(NamedTuple):
    """Result of the ratio test: is the top magnitude an outlier of order 1/kappa."""

    is_outlier: bool
    kappa: float
    ratio: float
    top_two: TopTwo


def _finite_values(data, need, purpose):
    """`data` as a 1-D float array of at least `need` values, all finite."""
    x = np.asarray(data, dtype=float)
    if x.ndim != 1:
        raise ParameterDomainError(f"data must be one-dimensional, got shape {x.shape}")
    if x.size < need:
        raise InsufficientDataError(f"need at least {need} values {purpose}, got {x.size}")
    if not (np.isfinite(x.min()) and np.isfinite(x.max())):  # a NaN makes both NaN
        i = int(np.flatnonzero(~np.isfinite(x))[0])
        raise ParameterDomainError(f"value at index {i} is not finite: {x[i]}")
    return x


def _top_two(mags):
    """Per row: largest, second, their indices (ties: earlier first); the largest becomes -inf."""
    rows, first = np.arange(len(mags)), mags.argmax(axis=1)
    largest = mags[rows, first]
    mags[rows, first] = -np.inf
    second = mags.argmax(axis=1)
    return largest, mags[rows, second], first, second


def _event(largest, second, kappa):
    """The outlier event of order 1/kappa; non-strict, so ties count."""
    return second <= kappa * largest


def _count_events(mags, kappa):
    """How many rows of the (rows, n) magnitudes hold the outlier event.

    A largest value past the floats (inf) decides its row only when the second
    is at most kappa times the largest float; another such row, or one with a
    NaN (which argmax ranks largest), raises :class:`AccuracyError`.
    """
    largest, second = _top_two(mags)[:2]
    if not ((largest <= _FLOAT_MAX) | (largest == np.inf) & (second <= kappa * _FLOAT_MAX)).all():
        raise AccuracyError("a sample overflowed the floats where it decides the outlier event")
    return int(np.count_nonzero(_event(largest, second, kappa)))


def top_two_magnitudes(data):
    """Select the two largest absolute values.

    Ties are broken by the earlier index taking the higher rank, so the
    result always agrees with a stable sort of the magnitudes.

    Parameters
    ----------
    data : sequence of finite reals, length >= 2

    Returns
    -------
    TopTwo
    """
    x = _finite_values(data, 2, "to rank the top two")
    top = []  # (-magnitude, index) pairs in order: the best first, and the earlier of a tie
    for at in range(0, x.size, _BLOCK_VALUES):
        mags = np.abs(x[None, at:at + _BLOCK_VALUES])
        largest, second, i, j = (a.item() for a in _top_two(mags))
        top = sorted(top + [(-largest, at + i), (-second, at + j)])[:2]
    (largest, i), (second, j) = top
    return TopTwo(-largest, -second, i, j)


def is_outlier(data, kappa):
    """Ratio test: does the second magnitude fall at or below kappa times the max.

    The comparison is non-strict (<=); for continuous data the boundary has
    probability zero, but ties on discrete data count as outliers.
    """
    kappa = check_kappa(kappa)
    top = top_two_magnitudes(data)
    if top.max_magnitude == 0.0:
        ratio = 0.0
    else:
        ratio = top.second_magnitude / top.max_magnitude
    return OutlierVerdict(
        is_outlier=_event(top.max_magnitude, top.second_magnitude, kappa),
        kappa=kappa,
        ratio=ratio,
        top_two=top,
    )


def ksigma_outliers(data, k):
    """Indices j with |X_j - mean| > k * s, s the population (1/n) std.

    Returns the empty set for constant data, where s = 0 and no deviation
    can exceed the threshold.  Data large or small enough for the sum of
    squared deviations to overflow or underflow is first scaled by a power
    of two, which is exact and leaves the rule unchanged.
    """
    k = check_real(k, "k", 0, np.inf, "(]")
    x = _finite_values(data, 2, "for the k-sigma rule")
    e = int(np.frexp(max(x.max(), -x.min()))[1])  # max|x| < 2**e
    # n * 2**(2e) bounds the sum of squares; below 2**-458, the square of a
    # deviation of 2**-53 * max|x| is no longer a normal float
    if 2 * e + x.size.bit_length() > 1023 or e < -458:
        x = np.ldexp(x, -e)
    m = x.mean()
    s = np.sqrt(_sum_of_squares(x, m) / x.size)  # x.std(), population convention
    if s == 0.0:
        return set()
    flagged = set()
    for start in range(0, x.size, _BLOCK_VALUES):
        d = np.abs(x[start:start + _BLOCK_VALUES] - m)
        flagged.update((np.flatnonzero(d > k * s) + start).tolist())
    return flagged


def _sum_of_squares(x, m):
    """The sum of (x - m)**2 as x.std() adds it, bit for bit, a block at a time.

    numpy adds more than 128 floats as two halves split at n // 2 rounded down
    to a multiple of 8, and fewer in one loop; this follows its splits to blocks.
    numpy does not promise that order; test_sum_of_squares_is_numpy_std_bit_for_bit checks it.
    """
    if x.size > max(_BLOCK_VALUES, 128):
        half = x.size // 2 - x.size // 2 % 8
        return _sum_of_squares(x[:half], m) + _sum_of_squares(x[half:], m)
    d = x - m
    d *= d
    return np.add.reduce(d)


def block_event_frequency(data, block_size, kappa):
    """Frequency of the outlier event over consecutive disjoint blocks.

    Partitions `data` into floor(len/block_size) blocks of exactly
    `block_size` values, discarding the remainder, and returns the fraction
    of blocks where :func:`is_outlier` holds together with the block count.
    Blocks are never overlapped or shuffled, preserving the i.i.d.-block
    structure a binomial confidence interval assumes.
    """
    kappa = check_kappa(kappa)
    n = check_int(block_size, "block_size", 2)
    x = _finite_values(data, n, "for one full block")
    blocks, step = x.size // n, _block_rows(n)
    samples = x[: blocks * n].reshape(blocks, n)  # a view
    hits = sum(_count_events(np.abs(samples[i:i + step]), kappa) for i in range(0, blocks, step))
    return hits / blocks, blocks
