"""Binomial proportion confidence intervals."""

import numpy as np
from scipy import special

from .errors import check_int, check_real


def normal_quantile(confidence):
    """Two-sided z value for the given confidence level."""
    confidence = check_real(confidence, "confidence", 0, 1)
    return float(special.ndtri(0.5 + confidence / 2.0))


def wilson_interval(p_hat, trials, confidence=0.95):
    """Wilson score interval for a binomial proportion.

    Chosen over the normal approximation because it stays inside [0, 1]
    and behaves sensibly when p_hat is near 0 or 1.

    Parameters
    ----------
    p_hat : observed proportion in [0, 1]
    trials : number of Bernoulli trials (>= 1)
    confidence : two-sided coverage level in (0, 1)

    Returns
    -------
    (lo, hi) : the interval endpoints
    """
    trials = check_int(trials, "trials", 1)
    p = check_real(p_hat, "p_hat", 0, 1, "[]")
    z = normal_quantile(confidence)
    z2 = z * z
    denom = 1.0 + z2 / trials
    center = (p + z2 / (2.0 * trials)) / denom
    half = (z / denom) * np.sqrt(p * (1.0 - p) / trials + z2 / (4.0 * trials * trials))
    return max(0.0, center - half), min(1.0, center + half)
