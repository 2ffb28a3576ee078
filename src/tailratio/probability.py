"""Probability of the ratio-outlier event, computed by independent routes.

The event is {second-largest magnitude <= kappa * largest magnitude} in an
i.i.d. sample of size n.  Four routes are provided:

* ``limit_probability`` -- the large-n limit kappa**alpha for densities
  that are regularly varying with index -(alpha+1) at infinity;
* ``exact_probability`` -- the finite-n value, the single integral
  n * F**(n-1)(kappa*y) * p(y) dy over (0, inf), by adaptive quadrature
  (QUADPACK's QAGS, ported in ``_quadpack``);
* ``mc_probability`` -- straight Monte Carlo over repeated samples;
* ``joint_oracle_probability`` -- small-n double quadrature of the joint
  density n*(n-1)*F**(n-2)(x)*p(x)*p(y) of the top two order statistics
  over {x <= kappa*y}, an independent derivation path used to validate
  the single-integral reduction (QAGS inside and outside, the outer
  integral starting where the inner one switches on).

Both quadrature routes report their work: ``neval`` integrand evaluations
over ``intervals`` subintervals.  Each integral they take must converge
(QUADPACK's ``ier`` 0) within max(epsabs, epsrel * |value|) of the
module's tolerances, or the route raises :class:`AccuracyError`.

``check_theorem_conditions`` numerically probes the side conditions under
which the finite-n probability converges to kappa**alpha: the boundary
ratio r(x) = p(x)/(kappa*p(kappa*x)) at large x, the vanishing of
F**n(kappa*x)*p(x)/p(kappa*x) at the lower support edge, and the
integrability of the integration-by-parts integrand g = r', as the sum of
|r(x[i+1]) - r(x[i])| over the grid points where r is finite (the
integral of |g| exactly when r is monotone on the grid).  These are
numeric probes, not proofs.
"""

from dataclasses import dataclass

import numpy as np

from .errors import (
    AccuracyError, ParameterDomainError, SingularityError, check_int, check_real,
)
from .intervals import wilson_interval
from .outliers import _count_events, check_kappa
from .rng import check_seed, substream

# clipping u at the last float below 1 keeps quantile() finite; the
# integrand is continuous there so the value change is below roundoff
_U_MAX = 1.0 - 1e-16

# QUADPACK's (epsrel, limit) for exact_probability's integral, which takes
# epsabs 0: an absolute floor would pass a P below it with a bound larger
# than P itself
_EXACT_EPSREL, _EXACT_LIMIT = 1e-8, 1000
# (epsabs, epsrel, limit) for the oracle's outer integral; its inner
# integrals take epsabs / 100, epsrel / 10 and 200
_ORACLE_EPSABS, _ORACLE_EPSREL, _ORACLE_LIMIT = 1e-9, 1e-9, 500

_N_MAX = 2**63 - 1  # int64's maximum n: float() and numpy's dimensions take it

# check_theorem_conditions' largest grid: 80 MB an array, its density taken point by point
_GRID_MAX = 10**7

# mc_probability counts events over blocks of samples of at most this many
# values (64 KiB), at least one sample a block
_MC_BLOCK_VALUES = 2**13


@dataclass(frozen=True)
class ProbabilityResult:
    """A probability value with its provenance and error estimate."""

    value: float
    method: str  # "limit" | "quadrature" | "monte_carlo" | "joint_oracle"
    error_estimate: float
    kappa: float
    n: int | None = None
    ci: tuple | None = None
    trials: int | None = None
    seed: int | None = None
    neval: int | None = None  # quadrature: integrand evaluations
    intervals: int | None = None  # quadrature: subintervals used


@dataclass(frozen=True)
class ConditionReport:
    """Numeric evidence for the convergence theorem's side conditions."""

    boundary_ratio_limit: float
    zero_limit_ok: bool
    integrand_integral: float
    notes: str


def limit_probability(kappa, alpha):
    """Large-n limit of the outlier-event probability: kappa**alpha."""
    kappa = check_real(kappa, "kappa", 0, 1, "(]")
    return kappa ** check_real(alpha, "alpha", 0, np.inf, "(]")


def _shortfall(q, epsabs, epsrel):
    """How QUADPACK's result q misses its tolerance, or "" if it does not.

    q misses when QUADPACK flags a failure (ier != 0) or its error bound
    exceeds max(epsabs, epsrel * |value|).
    """
    tol = max(epsabs, epsrel * abs(q.value))
    if q.ier == 0 and q.abserr <= tol:
        return ""
    from ._quadpack import IER_REASONS

    return (f"stopped with ier {q.ier}: {IER_REASONS[q.ier]}; "
            f"error bound {q.abserr:.3e}, tolerance {tol:.3e}")


def exact_probability(family, n, kappa):
    """Finite-n outlier probability by adaptive quadrature.

    The integral is rewritten with u = F(kappa*y) followed by w = u**n,
    giving

        P = integral_0^1  p(Q(w**(1/n)) / kappa) / (kappa * p(Q(w**(1/n))))  dw,

    which is bounded, smooth, and free of underflow for any n (the w
    substitution absorbs the F**(n-1) spike at the upper quantiles, where
    a naive grid would miss all the mass).  The family therefore needs a
    density p and a quantile Q; without either, :class:`CapabilityError`
    is raised on first use.

    Raises :class:`AccuracyError` (carrying the best estimate and QUADPACK's
    `ier`) if the quadrature misses its tolerance, which is relative only:
    the error bound must stay below 1e-8 * |P|, however small P is.
    """
    # here, so commands that never integrate skip loading the quadrature module
    from ._quadpack import quad

    n = check_int(n, "n", 2, _N_MAX)
    kappa = check_kappa(kappa)

    def integrand(w):
        # QAGS's Kronrod nodes are interior, so w > 0
        u = min(np.exp(np.log(w) / n), _U_MAX)
        x = float(family.quantile(u))  # x = kappa * y
        den = kappa * float(family.pdf(x))
        if den == 0.0:
            return 0.0
        return float(family.pdf(x / kappa)) / den

    q = quad(integrand, 0.0, 1.0, 0.0, _EXACT_EPSREL, _EXACT_LIMIT)
    value, err = q.value, q.abserr
    if reason := _shortfall(q, 0.0, _EXACT_EPSREL):
        raise AccuracyError(
            f"quadrature {reason}", best_estimate=value, error_estimate=err, ier=q.ier
        )
    return ProbabilityResult(
        value=float(min(max(value, 0.0), 1.0)),
        method="quadrature",
        error_estimate=float(err),
        kappa=kappa,
        n=n,
        neval=q.neval,
        intervals=q.last,
    )


def mc_probability(family, n, kappa, trials, seed, confidence=0.95):
    """Monte Carlo estimate of the outlier probability with a Wilson interval.

    Each trial draws its own substream from (seed, trial index), so the
    estimate is bit-identical for a given seed no matter how trials are
    scheduled; the reduction is an exact event count, taken over a block
    of consecutive trials at a time.
    """
    n = check_int(n, "n", 2, _N_MAX)
    kappa = check_kappa(kappa)
    trials = check_int(trials, "trials", 1)
    seed = check_seed(seed)
    confidence = check_real(confidence, "confidence", 0, 1)

    try:
        block = np.empty((max(1, _MC_BLOCK_VALUES // n), n))
    except (ValueError, MemoryError) as exc:  # numpy refuses or cannot allocate n values
        raise ParameterDomainError(f"n is too large to sample, got {n}: {exc}") from None
    sample, hits = family.sample_with, 0
    for start in range(0, trials, len(block)):
        mags = block[: min(len(block), trials - start)]
        for row, i in enumerate(range(start, start + len(mags))):
            mags[row] = sample(substream(seed, i), n)
        np.abs(mags, out=mags)
        hits += _count_events(mags, kappa)
    p_hat = hits / trials
    se = float(np.sqrt(p_hat * (1.0 - p_hat) / trials))
    ci = wilson_interval(p_hat, trials, confidence)
    return ProbabilityResult(
        value=p_hat,
        method="monte_carlo",
        error_estimate=se,
        kappa=kappa,
        n=n,
        ci=ci,
        trials=trials,
        seed=seed,
    )


def joint_oracle_probability(family, n, kappa):
    """Small-n probability from the joint density of the top two magnitudes.

    Double quadrature of n*(n-1)*F**(n-2)(x)*p(x)*p(y) over the region
    {support_lo <= x <= kappa*y}.  Deliberately does not reuse the
    single-integral reduction, so agreement with :func:`exact_probability`
    validates that reduction.  Restricted to n in {2, ..., 8} where the
    powers of F cause no conditioning trouble.

    Raises :class:`AccuracyError` (carrying the oracle's best estimate and
    the `ier` of the first integral to fail) if any integral misses its
    tolerance.
    """
    from ._quadpack import quad

    n = check_int(n, "n", 2, 8)
    kappa = check_kappa(kappa)
    lo = family.support_lo
    inner_eps, inner_rel = _ORACLE_EPSABS / 100.0, _ORACLE_EPSREL / 10.0
    inner_work = [0, 0]  # evaluations and subintervals of every inner integral
    failures = []  # (ier, message) of every integral that missed its tolerance

    def density(x):  # the joint density without its factor n*(n-1)*p(y)
        return float(family.cdf(x)) ** (n - 2) * float(family.pdf(x))

    def inner(y):
        hi = kappa * y
        if hi <= lo:
            return 0.0
        q = quad(density, lo, hi, inner_eps, inner_rel, 200)
        inner_work[0] += q.neval
        inner_work[1] += q.last
        if reason := _shortfall(q, inner_eps, inner_rel):
            failures.append((q.ier, f"inner quadrature over [{lo:g}, {hi:g}] {reason}"))
        return q.value

    def outer(t):
        if t == 1.0:  # y = inf carries no mass
            return 0.0
        y = lo + t / (1.0 - t)
        return float(family.pdf(y)) * inner(y) / (1.0 - t) ** 2

    # the inner integral is empty until y = lo/kappa: start the outer one there
    y_on = lo / kappa - lo
    q = quad(outer, y_on / (1.0 + y_on), 1.0, _ORACLE_EPSABS, _ORACLE_EPSREL, _ORACLE_LIMIT)
    if reason := _shortfall(q, _ORACLE_EPSABS, _ORACLE_EPSREL):
        failures.append((q.ier, f"outer quadrature {reason}"))
    coeff = n * (n - 1)
    value = coeff * q.value
    err_total = coeff * (q.abserr + inner_eps)
    if failures:
        ier, message = failures[0]
        raise AccuracyError(message, best_estimate=value, error_estimate=err_total, ier=ier)
    return ProbabilityResult(
        value=float(min(max(value, 0.0), 1.0)),
        method="joint_oracle",
        error_estimate=float(err_total),
        kappa=kappa,
        n=n,
        neval=q.neval + inner_work[0],
        intervals=q.last + inner_work[1],
    )


def boundary_ratio(family, kappa, x):
    """The ratio p(x) / (kappa * p(kappa*x)).

    For densities regularly varying with index -(alpha+1) this tends to
    kappa**alpha as x grows; for light tails it tends to 0.
    """
    kappa = check_kappa(kappa)
    x = check_real(x, "x", -np.inf, np.inf)
    den = kappa * float(family.pdf(kappa * x))
    if den == 0.0:
        raise SingularityError(
            f"density vanishes at kappa*x = {kappa * x}; ratio undefined"
        )
    return float(family.pdf(x)) / den


def check_theorem_conditions(family, kappa, n, probe_range=None, grid_points=401):
    """Numerically probe the side conditions of the convergence theorem.

    (a) evaluates F**n(kappa*x) * p(x)/p(kappa*x) at two points of the
    sequence edge + (start - edge) * 2**-k decreasing to the lower support
    edge, k = 0 and k = 29 (start is the probe range's lower end, else
    edge + 1), and reports whether it decays to 0;
    (b) integrates |g| for the integration-by-parts integrand

        g(x) = p'(x)/(kappa*p(kappa*x)) - p(x)*p'(kappa*x)/p(kappa*x)**2,

    the derivative of the boundary ratio r(x) = p(x)/(kappa*p(kappa*x)),
    as the total variation of r: the sum of |r(x[i+1]) - r(x[i])| over the
    points of a grid on the probe range (intersected with the common
    support of x and kappa*x) where r is finite, which is the integral of
    |g| exactly when r is monotone on the grid, as for every closed form;
    (c) reports the boundary ratio at the upper end of the probe range.

    `probe_range` is (lo, hi); None, or None at either end, takes that end
    from the default (support_lo + 0.01, support_lo + 50).  `grid_points`
    is an integer in 2..10**7.

    Purely diagnostic: finite sampling cannot establish integrability over
    (0, inf), so the report is evidence, never a verdict.
    """
    kappa = check_kappa(kappa)
    n = check_int(n, "n", 2, _N_MAX)

    edge = family.support_lo
    lo, hi = (None, None) if probe_range is None else probe_range
    lo = check_real(edge + 0.01 if lo is None else lo, "probe_range[0]", edge, np.inf, "[)")
    hi = check_real(edge + 50.0 if hi is None else hi, "probe_range[1]", lo, np.inf)
    grid_points = check_int(grid_points, "grid_points", 2, _GRID_MAX)

    # (a) decay toward the lower support edge, where F(kappa*x) -> 0
    start = lo if lo > edge else edge + 1.0
    decay = []
    for k in (0, 29):
        x = edge + (start - edge) * 2.0 ** -k
        f = float(family.cdf(kappa * x))
        if f <= 0.0:
            decay.append(0.0)
            continue
        den = float(family.pdf(kappa * x))
        if den == 0.0:
            decay.append(np.inf)
            continue
        decay.append(f**n * float(family.pdf(x)) / den)
    zero_limit_ok = decay[-1] < 1e-8 or decay[-1] < decay[0] / 100.0

    # (b) total variation of r on the common support {x >= edge, kappa*x >= edge}
    g_lo = max(lo, edge / kappa if edge > 0.0 else lo)
    xs = np.linspace(g_lo, hi, grid_points)
    p_x, p_kx = (np.array([family.pdf(x) for x in grid]) for grid in (xs, kappa * xs))
    with np.errstate(divide="ignore", invalid="ignore"):
        r = p_x / (kappa * p_kx)
    integrand_integral = float(np.abs(np.diff(r[np.isfinite(r)])).sum())

    ratio = boundary_ratio(family, kappa, hi)
    notes = (
        f"edge probe at x -> {edge:g}: first {decay[0]:.3e}, last {decay[-1]:.3e}; "
        f"integral of |g| over [{g_lo:g}, {hi:g}] = {integrand_integral:.3e}; "
        f"boundary ratio at x = {hi:g}: {ratio:.6e}"
    )
    return ConditionReport(
        boundary_ratio_limit=float(ratio),
        zero_limit_ok=zero_limit_ok,
        integrand_integral=integrand_integral,
        notes=notes,
    )
