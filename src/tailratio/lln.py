"""Running-mean experiments: when does the sample mean settle down?

For symmetric alpha-stable data the sample mean at size n is distributed
like n**(1/alpha - 1) times a fixed stable variable, so the magnitude of
the running mean grows when alpha < 1 (no law of large numbers: the top
observation is too large to be compensated), stays put at alpha = 1, and
shrinks when alpha > 1.  ``scaling_exponent_experiment`` measures that
exponent as the log-log slope of the median |running mean| against n.
"""

from dataclasses import dataclass

import numpy as np

from .errors import ParameterDomainError
from .rng import check_seed, substream

_CHUNK = 100_000


@dataclass(frozen=True)
class TrajectorySeries:
    """Running means of one deterministic sample stream at checkpoints."""

    checkpoints: tuple
    running_means: tuple
    family_name: str
    params: dict
    seed: int


@dataclass(frozen=True)
class ScalingResult:
    """Log-log slope of median |running mean| versus sample size."""

    slope: float
    ns: tuple
    per_n_medians: tuple
    replications: int
    family_name: str
    params: dict
    seed: int


def running_mean_trajectory(family, total, checkpoints, seed):
    """Partial means of one sample stream, recorded at the checkpoints.

    Streams the sample in fixed-size chunks, so memory use is constant in
    `total`.  Deterministic given (family, seed).
    """
    total = int(total)
    cps = [int(c) for c in checkpoints]
    if not cps or any(c < 1 for c in cps) or any(
        b <= a for a, b in zip(cps, cps[1:])
    ):
        raise ParameterDomainError(
            f"checkpoints must be increasing positive integers, got {checkpoints}"
        )
    if cps[-1] > total:
        raise ParameterDomainError(
            f"last checkpoint {cps[-1]} exceeds total {total}"
        )
    seed = check_seed(seed)
    rng = substream(seed)

    means = []
    running_sum = 0.0
    drawn = 0
    while drawn < cps[-1]:
        csum = running_sum + np.cumsum(family.sample_with(rng, min(_CHUNK, total - drawn)))
        means += [csum[c - drawn - 1] / c for c in cps if drawn < c <= drawn + csum.size]
        drawn += csum.size
        running_sum = csum[-1]
    return TrajectorySeries(
        checkpoints=tuple(cps),
        running_means=tuple(float(m) for m in means),
        family_name=family.name,
        params=dict(family.params),
        seed=seed,
    )


def scaling_exponent_experiment(family, ns, replications, seed):
    """Estimate the growth exponent of |running mean| by replication.

    For each sample size in `ns`, draws `replications` independent samples
    (one derived substream per (size index, replication)), records the
    median of |mean|, and least-squares fits log(median) against log(n).
    The median, not the mean, is taken across replications: |mean| has no
    finite expectation when the tail index is at most 1.
    """
    ns = [int(n) for n in ns]
    if len(ns) < 2 or any(n < 1 for n in ns) or any(
        b <= a for a, b in zip(ns, ns[1:])
    ):
        raise ParameterDomainError(
            f"ns must be at least two increasing sample sizes, got {ns}"
        )
    replications = int(replications)
    if replications < 1:
        raise ParameterDomainError(
            f"replications must be >= 1, got {replications}"
        )
    seed = check_seed(seed)

    medians = []
    for i, n in enumerate(ns):
        abs_means = np.empty(replications)
        for r in range(replications):
            x = family.sample_with(substream(seed, i, r), n)
            abs_means[r] = abs(x.mean())
        medians.append(float(np.median(abs_means)))
    slope = float(np.polyfit(np.log(ns), np.log(medians), 1)[0])
    return ScalingResult(
        slope=slope,
        ns=tuple(ns),
        per_n_medians=tuple(medians),
        replications=replications,
        family_name=family.name,
        params=dict(family.params),
        seed=seed,
    )


def theory_slope(alpha):
    """The self-similarity exponent 1/alpha - 1 for a stable law."""
    alpha = float(alpha)
    if not 0.0 < alpha <= 2.0:
        raise ParameterDomainError(f"alpha must be in (0, 2], got {alpha}")
    return 1.0 / alpha - 1.0
