"""Probability of the ratio-outlier event, computed by independent routes.

The event is {second-largest magnitude <= kappa * largest magnitude} in an
i.i.d. sample of size n.  Four routes are provided:

* ``limit_probability`` -- the large-n limit kappa**alpha for densities
  that are regularly varying with index -(alpha+1) at infinity;
* ``exact_probability`` -- the finite-n value, the single integral
  n * F**(n-1)(kappa*y) * p(y) dy over (0, inf), by adaptive quadrature;
* ``mc_probability`` -- straight Monte Carlo over repeated samples;
* ``joint_oracle_probability`` -- small-n double quadrature of the joint
  density n*(n-1)*F**(n-2)(x)*p(x)*p(y) of the top two order statistics
  over {x <= kappa*y}, an independent derivation path used to validate
  the single-integral reduction.

``check_theorem_conditions`` numerically probes the side conditions under
which the finite-n probability converges to kappa**alpha: the boundary
ratio p(x)/(kappa*p(kappa*x)) at large x, the vanishing of
F**n(kappa*x)*p(x)/p(kappa*x) at the lower support edge, and the
integrability of the integration-by-parts integrand.  These are numeric
probes, not proofs.
"""

import warnings
from dataclasses import dataclass

import numpy as np

from .errors import AccuracyError, SingularityError, check_int, check_real
from .intervals import wilson_interval
from .outliers import _event, _top_two, check_kappa
from .rng import check_seed, substream

# clipping u at the last float below 1 keeps quantile() finite; the
# integrand is continuous there so the value change is below roundoff
_U_MAX = 1.0 - 1e-16


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


@dataclass(frozen=True)
class ConditionReport:
    """Numeric evidence for the convergence theorem's side conditions."""

    boundary_ratio_limit: float
    zero_limit_ok: bool
    integrand_integral: float
    notes: str


def limit_probability(kappa, alpha):
    """Large-n limit of the outlier-event probability: kappa**alpha."""
    kappa = check_kappa(kappa, allow_one=True)
    return kappa ** check_real(alpha, "alpha", 0, np.inf, "(]")


def _quad(func, a, b, epsabs, epsrel, limit, points=None):
    from scipy import integrate  # here, so commands that never integrate skip its import

    with warnings.catch_warnings():
        warnings.simplefilter("ignore", integrate.IntegrationWarning)
        return integrate.quad(
            func, a, b, epsabs=epsabs, epsrel=epsrel, limit=limit, points=points
        )


def exact_probability(family, n, kappa, *, epsabs=1e-10, epsrel=1e-8, limit=1000):
    """Finite-n outlier probability by adaptive quadrature.

    The integral is rewritten with u = F(kappa*y) followed by w = u**n,
    giving

        P = integral_0^1  p(Q(w**(1/n)) / kappa) / (kappa * p(Q(w**(1/n))))  dw,

    which is bounded, smooth, and free of underflow for any n (the w
    substitution absorbs the F**(n-1) spike at the upper quantiles, where
    a naive grid would miss all the mass).  The family therefore needs a
    density p and a quantile Q; without either, :class:`CapabilityError`
    is raised on first use.

    Raises :class:`AccuracyError` (carrying the best estimate) if the
    quadrature error bound exceeds the requested tolerance.
    """
    n = check_int(n, "n", 2)
    kappa = check_kappa(kappa)

    def integrand(w):
        if w <= 0.0:
            u = 0.0
        else:
            u = min(np.exp(np.log(w) / n), _U_MAX)
        x = float(family.quantile(u))  # x = kappa * y
        den = kappa * float(family.pdf(x))
        if den == 0.0:
            return 0.0
        return float(family.pdf(x / kappa)) / den

    value, err = _quad(integrand, 0.0, 1.0, epsabs, epsrel, limit)
    tol = max(epsabs, epsrel * abs(value))
    if err > tol:
        raise AccuracyError(
            f"quadrature error bound {err:.3e} exceeds tolerance {tol:.3e}",
            best_estimate=value,
            error_estimate=err,
        )
    return ProbabilityResult(
        value=float(min(max(value, 0.0), 1.0)),
        method="quadrature",
        error_estimate=float(err),
        kappa=kappa,
        n=n,
    )


def mc_probability(family, n, kappa, trials, seed, confidence=0.95):
    """Monte Carlo estimate of the outlier probability with a Wilson interval.

    Each trial draws its own substream from (seed, trial index), so the
    estimate is bit-identical for a given seed no matter how trials are
    scheduled; the reduction is an exact event count.
    """
    n = check_int(n, "n", 2)
    kappa = check_kappa(kappa)
    trials = check_int(trials, "trials", 1)
    seed = check_seed(seed)
    confidence = check_real(confidence, "confidence", 0, 1)

    hits = 0
    for i in range(trials):
        mags = np.abs(family.sample_with(substream(seed, i), n))
        if _event(*_top_two(mags), kappa):
            hits += 1
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


def joint_oracle_probability(family, n, kappa, *, epsabs=1e-9, epsrel=1e-9):
    """Small-n probability from the joint density of the top two magnitudes.

    Double quadrature of n*(n-1)*F**(n-2)(x)*p(x)*p(y) over the region
    {support_lo <= x <= kappa*y}.  Deliberately does not reuse the
    single-integral reduction, so agreement with :func:`exact_probability`
    validates that reduction.  Restricted to n in {2, ..., 8} where the
    powers of F cause no conditioning trouble.
    """
    n = check_int(n, "n", 2, 8)
    kappa = check_kappa(kappa)
    lo = family.support_lo
    inner_eps = epsabs / 100.0

    def inner(y):
        hi = kappa * y
        if hi <= lo:
            return 0.0
        val, _ = _quad(
            lambda x: float(family.cdf(x)) ** (n - 2) * float(family.pdf(x)),
            lo,
            hi,
            inner_eps,
            epsrel / 10.0,
            200,
        )
        return val

    def outer(t):
        y = lo + t / (1.0 - t)
        return float(family.pdf(y)) * inner(y) / (1.0 - t) ** 2

    # inner integral switches on at y = lo/kappa; hand quad the breakpoint
    y_on = lo / kappa - lo
    points = [y_on / (1.0 + y_on)] if y_on > 0.0 else None
    raw, err = _quad(outer, 0.0, 1.0, epsabs, epsrel, 500, points=points)
    coeff = n * (n - 1)
    value = coeff * raw
    err_total = coeff * (err + inner_eps)
    return ProbabilityResult(
        value=float(min(max(value, 0.0), 1.0)),
        method="joint_oracle",
        error_estimate=float(err_total),
        kappa=kappa,
        n=n,
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

    (a) evaluates F**n(kappa*x) * p(x)/p(kappa*x) on a sequence decreasing
    to the lower support edge and reports whether it decays to 0;
    (b) evaluates the integration-by-parts integrand

        g(x) = p'(x)/(kappa*p(kappa*x)) - p(x)*p'(kappa*x)/p(kappa*x)**2

    on a grid over the probe range (intersected with the common support of
    x and kappa*x) and trapezoid-integrates |g|;
    (c) reports the boundary ratio at the upper end of the probe range.

    `probe_range` is (lo, hi); None, or None at either end, takes that end
    from the default (support_lo + 0.01, support_lo + 50).

    Purely diagnostic: finite sampling cannot establish integrability over
    (0, inf), so the report is evidence, never a verdict.
    """
    kappa = check_kappa(kappa)
    n = check_int(n, "n", 2)

    edge = family.support_lo
    lo, hi = (None, None) if probe_range is None else probe_range
    lo = check_real(edge + 0.01 if lo is None else lo, "probe_range[0]", edge, np.inf, "[)")
    hi = check_real(edge + 50.0 if hi is None else hi, "probe_range[1]", lo, np.inf)
    grid_points = check_int(grid_points, "grid_points", 2)

    # (a) decay toward the lower support edge, where F(kappa*x) -> 0
    start = lo if lo > edge else edge + 1.0
    probe_x = edge + (start - edge) * 2.0 ** (-np.arange(30, dtype=float))
    decay = []
    for x in probe_x:
        f = float(family.cdf(kappa * x))
        if f <= 0.0:
            decay.append(0.0)
            continue
        den = float(family.pdf(kappa * x))
        if den == 0.0:
            decay.append(np.inf)
            continue
        decay.append(f**n * float(family.pdf(x)) / den)
    decay = np.asarray(decay)
    zero_limit_ok = bool(decay[-1] < 1e-8 or decay[-1] < decay[0] / 100.0)

    # (b) integrability probe on the common support {x >= edge, kappa*x >= edge}
    g_lo = max(lo, edge / kappa if edge > 0.0 else lo)
    xs = np.linspace(g_lo, hi, grid_points)
    p_kx = family.pdf(kappa * xs)
    with np.errstate(divide="ignore", invalid="ignore"):
        g = family.pdf_derivative(xs) / (kappa * p_kx) - family.pdf(
            xs
        ) * family.pdf_derivative(kappa * xs) / p_kx**2
    g = np.where(np.isfinite(g), g, 0.0)
    integrand_integral = float(np.trapezoid(np.abs(g), xs))

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
