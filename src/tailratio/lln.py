"""Running-mean experiments: when does the sample mean settle down?

For symmetric alpha-stable data the sample mean at size n is distributed
like n**(1/alpha - 1) times a fixed stable variable, so the magnitude of
the running mean grows when alpha < 1 (no law of large numbers: the top
observation is too large to be compensated), stays put at alpha = 1, and
shrinks when alpha > 1.  ``scaling_exponent_experiment`` measures that
exponent as the log-log slope of the median |running mean - mean| against
n; a regularly varying tail with 1 < alpha < 2, such as Pareto, has the
same exponent once its mean is taken off.
"""

from dataclasses import dataclass

import numpy as np

from .errors import ParameterDomainError, check_int, check_real
from .rng import check_seed, substream

_CHUNK = 100_000


@dataclass(frozen=True)
class TrajectorySeries:
    """Running means of one deterministic sample stream at checkpoints."""

    checkpoints: tuple
    running_means: tuple


@dataclass(frozen=True)
class ScalingResult:
    """Log-log slope of median |running mean| versus sample size.

    `theory_slope` is the stable exponent 1/alpha - 1 of the family's alpha
    parameter, else of its tail index; None when it has neither, or when
    alpha > 2 (a finite variance).
    """

    slope: float
    ns: tuple
    per_n_medians: tuple
    theory_slope: float | None


def _increasing(values, name, need):
    """`values` as a list of at least `need` strictly increasing positive integers."""
    out = []
    for v in values:
        out.append(check_int(v, f"entry of {name}", out[-1] + 1 if out else 1))
    if len(out) < need:
        raise ParameterDomainError(f"too few {name}: need {need}, got {len(out)}")
    return out


def running_mean_trajectory(family, checkpoints, seed, replication=0):
    """Partial means of one sample stream, recorded at the checkpoints.

    The stream ends at the last checkpoint.  Replication r draws substream
    (seed, r), so no two (seed, replication) pairs share a stream.  Streams
    the sample in fixed-size chunks, so memory use is constant in the last
    checkpoint.  Deterministic given the arguments.
    """
    cps = _increasing(checkpoints, "checkpoints", 1)
    seed = check_seed(seed)
    replication = check_int(replication, "replication", 0)
    rng = substream(seed, replication)

    means = []
    running_sum = 0.0
    drawn = 0
    while drawn < cps[-1]:
        csum = running_sum + np.cumsum(family.sample_with(rng, min(_CHUNK, cps[-1] - drawn)))
        means += [csum[c - drawn - 1] / c for c in cps if drawn < c <= drawn + csum.size]
        drawn += csum.size
        running_sum = csum[-1]
    return TrajectorySeries(checkpoints=tuple(cps), running_means=tuple(float(m) for m in means))


def scaling_exponent_experiment(family, ns, replications, seed):
    """Estimate the growth exponent of |running mean| by replication.

    For each sample size in `ns`, draws `replications` independent samples
    (one derived substream per (size index, replication)), records the
    median of |mean - mu|, where mu is the family's closed-form mean (0
    when it has none), and least-squares fits log(median) against log(n).
    Centring matters for the magnitude families: their mean is positive,
    so the uncentred |mean| settles at it and the slope reads 0.  The
    median, not the mean, is taken across replications: |mean| has no
    finite expectation when the tail index is at most 1.
    """
    ns = _increasing(ns, "ns", 2)
    replications = check_int(replications, "replications", 1)
    seed = check_seed(seed)
    mu = 0.0 if family.mean is None else family.mean

    medians = []
    for i, n in enumerate(ns):
        abs_means = np.empty(replications)
        for r in range(replications):
            x = family.sample_with(substream(seed, i, r), n)
            abs_means[r] = abs(x.mean() - mu)
        medians.append(float(np.median(abs_means)))
    slope = float(np.polyfit(np.log(ns), np.log(medians), 1)[0])
    alpha = family.params.get("alpha", family.tail_index)
    theory = theory_slope(alpha) if alpha is not None and alpha <= 2.0 else None
    return ScalingResult(slope, tuple(ns), tuple(medians), theory)


def theory_slope(alpha):
    """The self-similarity exponent 1/alpha - 1 for a stable law."""
    return 1.0 / check_real(alpha, "alpha", 0, 2, "(]") - 1.0
