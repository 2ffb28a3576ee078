"""Tail-index estimation from the block frequency of the outlier event.

Since the event probability tends to kappa**alpha for regularly varying
tails, the observed block frequency p_hat inverts to

    alpha_hat = ln(p_hat) / ln(kappa).

At finite block size n this targets the finite-n event probability, not the
limit, so for non-Pareto families alpha_hat should be read as an effective
index at block size n (for Pareto the two coincide at every n).  The
confidence interval transports the Wilson interval of p_hat through the same
monotone map; the map is decreasing in p_hat, so the endpoints swap.
"""

import math
from dataclasses import dataclass

from .errors import DegenerateFrequencyError, ParameterDomainError
from .intervals import wilson_interval
from .outliers import block_event_frequency, check_kappa


@dataclass(frozen=True)
class AlphaEstimate:
    """Estimated stability index with its provenance."""

    alpha_hat: float
    p_hat: float
    kappa: float
    block_size: int | None
    blocks: int
    ci: tuple  # (lo, hi)
    confidence: float


def _alpha_of(p, kappa):
    return math.log(p) / math.log(kappa)


def estimate_alpha_from_frequency(p_hat, kappa, blocks, confidence=0.95, block_size=None):
    """Turn an observed event frequency into an AlphaEstimate.

    Raises :class:`DegenerateFrequencyError` when p_hat is exactly 0 or 1:
    ln(0) is not a number a report should carry, but the Wilson interval
    still yields a one-sided bound on alpha, which the error carries.
    """
    kappa = check_kappa(kappa)
    blocks = int(blocks)
    if blocks < 1:
        raise ParameterDomainError(f"blocks must be >= 1, got {blocks}")
    p_hat = float(p_hat)
    if not 0.0 <= p_hat <= 1.0:
        raise ParameterDomainError(f"p_hat must lie in [0, 1], got {p_hat}")

    p_lo, p_hi = wilson_interval(p_hat, blocks, confidence)
    if p_hat == 1.0:
        raise DegenerateFrequencyError(
            "every block triggered the event; alpha_hat is only bounded above",
            p_hat=p_hat,
            bound=_alpha_of(p_lo, kappa),
            bound_side="upper",
            confidence=confidence,
        )
    if p_hat == 0.0:
        raise DegenerateFrequencyError(
            "no block triggered the event; alpha_hat is only bounded below",
            p_hat=p_hat,
            bound=_alpha_of(p_hi, kappa),
            bound_side="lower",
            confidence=confidence,
        )

    # ln p / ln kappa is decreasing in p, so the interval endpoints swap
    return AlphaEstimate(
        alpha_hat=_alpha_of(p_hat, kappa),
        p_hat=p_hat,
        kappa=kappa,
        block_size=block_size,
        blocks=blocks,
        ci=(_alpha_of(p_hi, kappa), _alpha_of(p_lo, kappa)),
        confidence=float(confidence),
    )


def estimate_alpha_from_data(data, block_size, kappa, confidence=0.95):
    """Estimate alpha from raw data via disjoint-block event frequencies."""
    p_hat, blocks = block_event_frequency(data, block_size, kappa)
    return estimate_alpha_from_frequency(
        p_hat, kappa, blocks, confidence=confidence, block_size=int(block_size)
    )
