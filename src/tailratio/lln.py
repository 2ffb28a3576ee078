"""Running-mean experiments: when does the sample mean settle down?

For symmetric alpha-stable data the sample mean at size n is distributed
like n**(1/alpha - 1) times a fixed stable variable, so the magnitude of
the running mean grows when alpha < 1 (no law of large numbers: the top
observation is too large to be compensated), stays put at alpha = 1, and
shrinks when alpha > 1.  ``scaling_exponent_experiment`` measures that
exponent as the log-log slope of the median |running mean - mean| against
n; a regularly varying tail with 1 < alpha < 2, such as Pareto, has the
same exponent once its mean is taken off.

Both experiments read one stream per replication at the same sample sizes
`ns`: replication r of either draws substream (seed, r), and the scaling
table is the median over r of the trajectories at those sizes.
``trajectories`` runs the replications on a thread pool: numpy releases
the GIL while it samples and sums a chunk, and since each replication owns
its stream and the pool keeps their order, the output does not depend on
the number of threads.
"""

import os
from collections import deque
from functools import partial
from typing import NamedTuple

import numpy as np

from .errors import AccuracyError, ParameterDomainError, check_int, check_real
from .rng import check_seed, substream

# stable sampling and sums (2-vCPU Xeon, AVX-512): 24.5 ns a variate in chunks of 10**4, 26.2 in
# 10**5, the sums 0.4-0.5; another size would change every stable value (a chunk draws U, then E)
_CHUNK = 10_000


class TrajectorySeries(NamedTuple):
    """Running means of one deterministic sample stream at the sizes `ns`."""

    ns: tuple
    running_means: tuple


class ScalingResult(NamedTuple):
    """Log-log slope of median |running mean| versus sample size.

    `theory_slope` is 1/min(alpha, 2) - 1, alpha the family's tail index,
    or 2 when it has none: a finite variance puts the family in the normal
    domain of attraction, where the exponent is -1/2.
    """

    slope: float
    ns: tuple
    per_n_medians: tuple
    theory_slope: float


def _increasing(values, name, need):
    """`values` as a list of at least `need` strictly increasing positive integers."""
    out = []
    for v in values:
        out.append(check_int(v, f"entry of {name}", out[-1] + 1 if out else 1))
    if len(out) < need:
        raise ParameterDomainError(f"too few {name}: need {need}, got {len(out)}")
    return out


def running_mean_trajectory(family, ns, seed, replication=0):
    """Partial means of one sample stream, recorded at each size n in `ns`.

    Replication r draws substream (seed, r), so no two (seed, replication)
    pairs share a stream.  It is drawn in whole chunks of _CHUNK values up to the last
    size, so memory use is constant in it.  The sum at n is the whole chunks before it,
    in order, plus its own chunk's first values, each a pairwise ``np.add.reduce``
    (error log n, not n) that writes no drawn value, so a mean at n depends only on
    (seed, replication, n), not on the sizes around it.  The sums run in the standard
    law; each mean is multiplied by ``scale`` once, and one not a float raises AccuracyError.
    """
    ns = _increasing(ns, "ns", 1)
    rng = substream(check_seed(seed), check_int(replication, "replication", 0, 2**64 - 1))
    unit, family = family.scale, family.standard_law()

    means, running_sum = [], 0.0
    with np.errstate(over="ignore", invalid="ignore"):  # _scaled refuses an overflow
        for drawn in range(0, ns[-1], _CHUNK):
            chunk = family.sample_with(rng, _CHUNK)
            means += [(running_sum + np.add.reduce(chunk[: n - drawn])) / n
                      for n in ns if drawn < n <= drawn + _CHUNK]
            running_sum += np.add.reduce(chunk)
    return TrajectorySeries(ns=tuple(ns), running_means=_scaled(means, unit, "running mean"))


def trajectories(family, ns, replications, seed, threads=None):
    """The trajectories ``running_mean_trajectory(family, ns, seed, r)``.

    One for each r in 0 .. replications - 1, listed in that order.  They
    run on a pool of min(threads, replications, usable CPUs) threads, the
    usable CPUs being those this process may run on; `threads` None means
    all of them.  The list holds every trajectory, but at most two
    replications a thread are submitted and not yet taken.
    """
    from concurrent.futures import ThreadPoolExecutor

    replications = check_int(replications, "replications", 1, 2**63 - 1)  # int64's maximum
    cpus = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
            else os.cpu_count() or 1)
    threads = cpus if threads is None else check_int(threads, "threads", 1)
    workers = min(threads, replications, cpus)
    run = partial(running_mean_trajectory, family, ns, seed)
    results, pending = [], deque()
    with ThreadPoolExecutor(workers) as pool:
        for r in range(replications):
            if len(pending) == 2 * workers:
                results.append(pending.popleft().result())
            pending.append(pool.submit(run, r))
        results += [future.result() for future in pending]
    return results


def scaling_exponent_experiment(family, ns, replications, seed, threads=None):
    """Estimate the growth exponent of |running mean| by replication.

    Replication r is ``running_mean_trajectory(family.standard_law(), ns,
    seed, r)``, all of them drawn by ``trajectories`` on `threads` threads;
    the row of each sample size n is the median over r of |running mean -
    mu|, mu the standard law's mean (0 when it has none), read off a sort
    of the column as np.median reads it.  The slope is the least-squares
    slope of log(median) against log(n), taken from exact integer sums and
    rounded once: correctly rounded, whatever BLAS or LAPACK numpy was
    built with.  Only then is each median multiplied by ``scale``, so the
    slope does not depend on the unit.  A row depends only on (seed,
    replications, n), not on the other sizes in `ns`.  Centring matters
    for the magnitude families: their mean is positive, so the uncentred
    |mean| settles at it and the slope reads 0.  The median, not the mean,
    is taken across replications: |mean| has no finite expectation when the
    tail index is at most 1.  The theory slope is
    ``theory_slope(min(alpha, 2))``, alpha the tail index or 2.
    """
    ns = _increasing(ns, "ns", 2)
    unit, family = family.scale, family.standard_law()
    mu = 0.0 if family.mean is None else family.mean

    rows = [t.running_means for t in trajectories(family, ns, replications, seed, threads)]
    with np.errstate(over="ignore"):  # _scaled refuses an overflowed median
        medians = _column_medians(np.abs(np.array(rows) - mu))
    if not medians.all():  # a law too narrow for the floats: every mean rounds to mu
        raise AccuracyError("a median |running mean - mean| is 0 in the floats, so has no log")
    scaled = _scaled(medians, unit, "median")
    slope = _least_squares_slope(np.log(ns), np.log(medians))
    alpha = 2.0 if family.tail_index is None else min(family.tail_index, 2.0)
    return ScalingResult(slope, tuple(ns), scaled, theory_slope(alpha))


def _column_medians(table):
    """The median of each column of the finite 2-d `table`, as ``np.median(table, axis=0)``.

    The middle row of the column-sorted table, or the mean ``(lo + hi) / 2`` of
    the two middle rows for an even count, which is what np.median computes;
    np.median would also import numpy.ma, to look for a masked array.
    """
    table = np.sort(table, axis=0)
    half = len(table) // 2
    return table[half] if len(table) % 2 else (table[half - 1] + table[half]) / 2.0


def _least_squares_slope(x, y):
    """The least-squares slope of the float points (x, y), correctly rounded.

    Each float is an integer over a power of two, so with X = x * 2**a and
    Y = y * 2**b integers the slope (k sum XY - sum X sum Y) * 2**a /
    ((k sum X**2 - (sum X)**2) * 2**b) is a ratio of two integers, which
    Python's int division rounds once; no BLAS or LAPACK build can move it.
    fractions.Fraction would give the same float, but imports decimal (0.3 MB).
    """
    def integers(values):  # each v times the least power of two that makes every v an integer
        ratios = [v.as_integer_ratio() for v in values.tolist()]
        scale = max(q for _, q in ratios)
        return [p * (scale // q) for p, q in ratios], scale

    (x, x_scale), (y, y_scale) = integers(x), integers(y)
    k, sx, sy = len(x), sum(x), sum(y)
    return ((k * sum(a * b for a, b in zip(x, y)) - sx * sy) * x_scale
            / ((k * sum(a * a for a in x) - sx * sx) * y_scale))


def _scaled(values, unit, what):
    """`unit` times `values`, as a tuple of floats; :class:`AccuracyError` if one is not."""
    with np.errstate(over="ignore", invalid="ignore"):
        values = np.multiply(values, unit)
    if not np.isfinite(values).all():
        raise AccuracyError(f"a {what} overflowed the floats")
    return tuple(float(v) for v in values)


def theory_slope(alpha):
    """The self-similarity exponent 1/alpha - 1 for a stable law."""
    return 1.0 / check_real(alpha, "alpha", 0, 2, "(]") - 1.0
