"""Order-statistic outlier machinery.

Two detectors live here.  The ratio detector declares the largest magnitude
an outlier of order 1/kappa when the second-largest magnitude is at most
kappa times the largest.  The classical k-sigma rule (mean plus k population
standard deviations) is included as the baseline it is meant to replace:
a single huge observation inflates s enough to hide itself, which the ratio
detector is immune to.

All operations are pure functions over immutable sequences of finite
reals; a NaN or infinite value raises ParameterDomainError naming its index.
"""

from dataclasses import dataclass

import numpy as np

from .errors import InsufficientDataError, ParameterDomainError


@dataclass(frozen=True)
class TopTwo:
    """Largest and second-largest magnitudes with their source indices."""

    max_magnitude: float
    second_magnitude: float
    max_index: int
    second_index: int


@dataclass(frozen=True)
class OutlierVerdict:
    """Result of the ratio test: is the top magnitude an outlier of order 1/kappa."""

    is_outlier: bool
    kappa: float
    ratio: float
    top_two: TopTwo


def check_kappa(kappa, allow_one=False):
    """Validate and return kappa in (0, 1), or in (0, 1] with `allow_one`."""
    kappa = float(kappa)
    hi_ok = kappa <= 1.0 if allow_one else kappa < 1.0
    if not (0.0 < kappa and hi_ok):
        bound = "(0, 1]" if allow_one else "(0, 1)"
        raise ParameterDomainError(f"kappa must lie in {bound}, got {kappa}")
    return kappa


def _finite_values(data, need, purpose):
    """`data` as a 1-D float array of at least `need` values, all finite."""
    x = np.asarray(data, dtype=float)
    if x.ndim != 1 or x.size < need:
        raise InsufficientDataError(
            f"need at least {need} values {purpose}, got {x.size}"
        )
    bad = np.flatnonzero(~np.isfinite(x))
    if bad.size:
        i = int(bad[0])
        raise ParameterDomainError(f"value at index {i} is not finite: {x[i]}")
    return x


def _top_two(mags):
    """(second, largest) along the last axis of a 1-D or (rows, n) array."""
    part = np.partition(mags, -2).T
    return part[-2], part[-1]


def _event(second, largest, kappa):
    """The outlier event of order 1/kappa; non-strict, so ties count."""
    return second <= kappa * largest


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
    mags = np.abs(_finite_values(data, 2, "to rank the top two"))
    # argmax returns the first maximum, which keeps the earlier-index rule
    best_i = int(np.argmax(mags))
    best = float(mags[best_i])
    mags[best_i] = -np.inf  # mags is a fresh array, not the caller's
    second_i = int(np.argmax(mags))
    return TopTwo(
        max_magnitude=best,
        second_magnitude=float(mags[second_i]),
        max_index=best_i,
        second_index=second_i,
    )


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
        is_outlier=_event(top.second_magnitude, top.max_magnitude, kappa),
        kappa=kappa,
        ratio=ratio,
        top_two=top,
    )


def ksigma_outliers(data, k):
    """Indices j with |X_j - mean| > k * s, s the population (1/n) std.

    Returns the empty set for constant data, where s = 0 and no deviation
    can exceed the threshold.
    """
    k = float(k)
    if not k > 0.0:
        raise ParameterDomainError(f"k must be positive, got {k}")
    x = _finite_values(data, 2, "for the k-sigma rule")
    s = x.std()  # population convention, divide by n
    if s == 0.0:
        return set()
    return set(np.flatnonzero(np.abs(x - x.mean()) > k * s).tolist())


def block_event_frequency(data, block_size, kappa):
    """Frequency of the outlier event over consecutive disjoint blocks.

    Partitions `data` into floor(len/block_size) blocks of exactly
    `block_size` values, discarding the remainder, and returns the fraction
    of blocks where :func:`is_outlier` holds together with the block count.
    Blocks are never overlapped or shuffled, preserving the i.i.d.-block
    structure a binomial confidence interval assumes.
    """
    kappa = check_kappa(kappa)
    n = int(block_size)
    if n < 2:
        raise ParameterDomainError(f"block_size must be >= 2, got {block_size}")
    x = _finite_values(data, n, "for one full block")
    blocks = x.size // n
    mags = np.abs(x[: blocks * n]).reshape(blocks, n)
    hits = _event(*_top_two(mags), kappa)
    return float(hits.mean()), blocks
