"""Probability of the ratio-outlier event, computed by independent routes.

The event is {second-largest magnitude <= kappa * largest magnitude} in an
i.i.d. sample of size n.  Four routes are provided:

* ``limit_probability`` -- the large-n limit kappa**alpha for densities
  that are regularly varying with index -(alpha+1) at infinity;
* ``exact_probability`` -- the finite-n value, the single integral
  n * F**(n-1)(kappa*y) * p(y) dy over (0, inf), by quadrature over the
  upper-tail quantile;
* ``mc_probability`` -- straight Monte Carlo over repeated samples;
* ``joint_oracle_probability`` -- small-n double quadrature of the joint
  density n*(n-1)*F**(n-2)(x)*p(x)*p(y) of the top two order statistics
  over {x <= kappa*y}, an independent derivation path used to validate
  the single-integral reduction.

Nothing here depends on the unit, so every route but the limit, and
``check_theorem_conditions``, takes the family's standard law; both
quadrature routes integrate it by one tanh-sinh rule over (0, 1) (Takahasi
and Mori, Publ. RIMS 9 (1974) 721-741) that halves its step until two
levels agree within 1e-8 of the value, or raises :class:`AccuracyError`.

``check_theorem_conditions`` numerically probes the side conditions under
which the finite-n probability converges to kappa**alpha: the boundary
ratio r(x) = p(x)/(kappa*p(kappa*x)) at large x, the vanishing of
F**n(kappa*x)*p(x)/p(kappa*x) at the lower support edge, and the
integrability of the integration-by-parts integrand g = r', as the sum of
|r(x[i+1]) - r(x[i])| over the grid points where r is finite (the
integral of |g| exactly when r is monotone on the grid).  These are
numeric probes, not proofs.

Every route but ``mc_probability`` computes with ``math`` alone and loads
no numpy, and its sums are correctly rounded by ``math.fsum``, so it prints
the same digits on every CPU.
"""

import math
import sys
from functools import cache
from itertools import pairwise
from typing import NamedTuple

from .errors import (
    AccuracyError, ParameterDomainError, SingularityError,
    check_int, check_kappa, check_real,
)
from .rng import check_seed, substream

# the tanh-sinh nodes t = j*h span [-_T, _T], where w and 1 - w fall to 1e-275
_T = 6.0
# level k takes the step h = 2**-(k+1); the rule stops at level 3 at the earliest
_FIRST_LEVEL, _LAST_LEVEL = 3, 8
# relative only: an absolute floor would pass a P below it with an estimate
# larger than P itself
_RTOL = 1e-8

# 5-point Gauss-Legendre: nodes 0, +-a and +-b on [-1, 1], then mapped to
# (node, weight) pairs on [0, 1], the weights summing to 1
_GL_A, _GL_B = (math.sqrt(5.0 + sign * 2.0 * math.sqrt(10.0 / 7.0)) / 3.0 for sign in (-1, 1))
_GL_WA, _GL_WB = ((322.0 + sign * 13.0 * math.sqrt(70.0)) / 900.0 for sign in (1, -1))
_GAUSS = tuple(((1.0 + x) / 2.0, g / 2.0) for x, g in (
    (-_GL_B, _GL_WB), (-_GL_A, _GL_WA), (0.0, 128.0 / 225.0), (_GL_A, _GL_WA), (_GL_B, _GL_WB)))

# int64's maximum n, the bound on trials too: float() and numpy's dimensions take it
_N_MAX = 2**63 - 1

# check_theorem_conditions' largest grid: its points are made and summed one at a
# time, so the bound is on time, not memory: about 1 s per 10**6 points on a 2-vCPU Xeon
_GRID_MAX = 10**7


class ProbabilityResult(NamedTuple):
    """A probability value with its provenance and error estimate, in record order.

    `family` and `params` name the law the route was given, `params` in the
    data's unit; the limit names no family and gives the tail index.
    """

    method: str  # "limit" | "quadrature" | "monte_carlo" | "joint_oracle"
    family: str | None
    params: dict
    n: int | None
    kappa: float
    value: float
    error_estimate: float
    ci: tuple | None = None
    trials: int | None = None
    seed: int | None = None
    neval: int | None = None  # quadrature: integrand evaluations

    _unrecorded = ("neval",)  # fields left out of the record


class ConditionReport(NamedTuple):
    """Numeric evidence for the convergence theorem's side conditions, in record order."""

    family: str
    params: dict
    n: int
    kappa: float
    boundary_ratio_limit: float
    zero_limit_ok: bool
    integrand_integral: float
    notes: str


def limit_probability(kappa, alpha):
    """Large-n limit of the outlier-event probability: kappa**alpha."""
    kappa = check_real(kappa, "kappa", 0, 1, "(]")
    return kappa ** check_real(alpha, "alpha", 0, math.inf, "(]")


def _tanh_sinh(f):
    """The integral of f over (0, 1) and its error estimate.

    Level k puts nodes at t = j*h in [-6, 6], h = 2**-(k+1), mapped to
    w = 1/(1 + exp(-pi*sinh(t))) with weight h*pi*cosh(t)*w*c; c = 1 - w
    is computed directly, so both ends of (0, 1) keep their digits.  `f`
    takes the lists w and c of one level, in increasing w, and returns the
    list of its values there.  Every level is evaluated whole, and the even
    nodes of a level are those of the level before, bit for bit.

    The estimate is the difference of the last two levels, plus the two
    outermost terms per unit of t, which bound the mass beyond t = +-6
    where the terms fall faster than exp(-|t|), and at least four ulps of
    the value.  The rule returns once it is within 1e-8 of the
    value, at level 3 at the earliest, and raises :class:`AccuracyError`
    if level 8 has not got there.
    """
    previous = None
    for level in range(_LAST_LEVEL + 1):
        h = 0.5 ** (level + 1)
        t = [h * j for j in range(-round(_T / h), round(_T / h) + 1)]
        e = [math.exp(-math.pi * math.sinh(tj)) for tj in t]
        w, c = [1.0 / (1.0 + ej) for ej in e], [ej / (1.0 + ej) for ej in e]
        weight = h * math.pi
        terms = [weight * math.cosh(tj) * wj * cj * fj
                 for tj, wj, cj, fj in zip(t, w, c, f(w, c))]
        value = math.fsum(terms)
        if previous is not None:
            diff, edge = abs(value - previous), (abs(terms[0]) + abs(terms[-1])) / h
            err = max(diff + edge, 4.0 * sys.float_info.epsilon * abs(value))
            tol = _RTOL * abs(value)
            if err <= tol and level >= _FIRST_LEVEL:
                return value, err
        previous = value
    raise AccuracyError(
        f"quadrature levels {level - 1} and {level} differ by {diff:.3e} and the outermost "
        f"nodes add {edge:.3e}, against a tolerance of {tol:.3e}",
        best_estimate=value, error_estimate=err,
    )


def exact_probability(family, n, kappa):
    """Finite-n outlier probability by quadrature.

    The integral, over the family's standard law, is rewritten with
    u = F(kappa*y) followed by w = u**n, giving

        P = integral_0^1  p(x / kappa) / (kappa * p(x))  dw,   x = Q(v),

    where Q is the upper-tail quantile, 1 - F(Q(v)) = v, at
    v = 1 - w**(1/n) = -expm1(ln(w) / n).  The integrand is bounded, smooth
    and free of underflow for any n (the w substitution absorbs the
    F**(n-1) spike at the upper quantiles, where a naive grid would miss
    all the mass), and v keeps its digits where w**(1/n) is within 1e-16
    of 1.  The family therefore needs a density p and a quantile Q; without
    either, :class:`CapabilityError` is raised on first use.

    Raises :class:`AccuracyError` (carrying the best estimate) if the
    tanh-sinh rule misses its tolerance, which is relative only: the error
    estimate must stay below 1e-8 * |P|, however small P is.
    """
    n = check_int(n, "n", 2, _N_MAX)
    kappa = check_kappa(kappa)
    family = family.standard_law()

    @cache  # a node recurs at every later level
    def ratio(w, c):
        log_w = math.log(w) if w <= 0.5 else math.log1p(-c)
        x = family.quantile(-math.expm1(log_w / n), upper=True)  # x = kappa * y
        den = kappa * family.pdf(x)
        return family.pdf(x / kappa) / den if den else 0.0

    # a quantile beyond the floats is inf, where p is 0
    value, err = _tanh_sinh(lambda w, c: list(map(ratio, w, c)))
    return ProbabilityResult("quadrature", family.name, family.params, n, kappa,
                             min(max(value, 0.0), 1.0), err, neval=ratio.cache_info().misses)


def mc_probability(family, n, kappa, trials, seed, confidence=0.95):
    """Monte Carlo estimate of the outlier probability with a Wilson interval.

    Each trial samples the family's standard law from its own substream of
    (seed, trial index), so the estimate is bit-identical for a given seed at
    any unit and however trials are scheduled.  Events are counted exactly, a
    block of trials at a time; an overflow that leaves one undecided raises
    :class:`AccuracyError`.
    """
    import numpy as np

    from .intervals import wilson_interval
    from .outliers import _block_rows, _count_events

    n = check_int(n, "n", 2, _N_MAX)
    kappa = check_kappa(kappa)
    trials = check_int(trials, "trials", 1, _N_MAX)
    seed = check_seed(seed)
    confidence = check_real(confidence, "confidence", 0, 1)

    try:
        block = np.empty((_block_rows(n), n))
    except (ValueError, MemoryError) as exc:  # numpy refuses or cannot allocate n values
        raise ParameterDomainError(f"n is too large to sample, got {n}: {exc}") from None
    sample, hits = family.standard_law().sample_with, 0
    with np.errstate(over="ignore", invalid="ignore"):  # _count_events judges an inf or NaN
        for start in range(0, trials, len(block)):
            mags = block[: min(len(block), trials - start)]
            for row, i in enumerate(range(start, start + len(mags))):
                mags[row] = sample(substream(seed, i), n)
            np.abs(mags, out=mags)
            hits += _count_events(mags, kappa)
    p_hat = hits / trials
    se = math.sqrt(p_hat * (1.0 - p_hat) / trials)
    return ProbabilityResult("monte_carlo", family.name, family.params, n, kappa, p_hat, se,
                             wilson_interval(p_hat, trials, confidence), trials, seed)


def joint_oracle_probability(family, n, kappa):
    """Small-n probability from the joint density of the top two magnitudes.

    Double quadrature of n*(n-1)*F**(n-2)(x)*p(x)*p(y) over the region
    {support_lo <= x <= kappa*y}.  Deliberately does not reuse the
    single-integral reduction, so agreement with :func:`exact_probability`
    validates that reduction.  Restricted to n in {2, ..., 8} where the
    powers of F cause no conditioning trouble.

    In the standard law, the outer integral runs over y = lo/kappa + w/c
    (c = 1 - w), where the inner one switches on, by the tanh-sinh rule in
    w.  The inner integral of F**(n-2)*p from lo to kappa*y is taken in
    s = (x - lo)/(1 + x - lo), with 1 - s computed directly, as a running
    sum up the outer nodes: a 5-point Gauss-Legendre rule on each gap
    between consecutive nodes.

    Raises :class:`AccuracyError` (carrying the oracle's best estimate) if
    the rule misses its tolerance.
    """
    n = check_int(n, "n", 2, 8)
    kappa = check_kappa(kappa)
    family = family.standard_law()
    lo = family.support_lo
    coeff = n * (n - 1)
    nodes = 0

    def density(s, c):  # F**(n-2)*p at x = lo + s/c, times dx/ds = 1/c**2
        x = lo + s / c
        return family.cdf(x) ** (n - 2) * family.pdf(x) / c / c

    def outer(w, c):
        nonlocal nodes
        nodes += len(w)
        values, inner, s0, c0 = [], 0.0, 0.0, 1.0
        for wi, ci in zip(w, c):
            d = kappa * wi  # kappa*y - lo = d/ci
            s1, c1 = d / (ci + d), ci / (ci + d)
            gap = s1 - s0 if s1 < 0.5 else c0 - c1
            inner += gap * sum(g * density(s0 + gap * tau, c0 - gap * tau) for tau, g in _GAUSS)
            s0, c0 = s1, c1
            values.append(coeff * family.pdf(lo / kappa + wi / ci) / ci * inner / ci)
        return values

    value, err = _tanh_sinh(outer)
    # neval: a node takes the outer density and 5 inner points
    return ProbabilityResult("joint_oracle", family.name, family.params, n, kappa,
                             min(max(value, 0.0), 1.0), err, neval=6 * nodes)


def boundary_ratio(family, kappa, x):
    """The ratio p(x) / (kappa * p(kappa*x)).

    For densities regularly varying with index -(alpha+1) this tends to
    kappa**alpha as x grows; for light tails it tends to 0.
    """
    kappa = check_kappa(kappa)
    x = check_real(x, "x", -math.inf, math.inf)
    den = kappa * family.pdf(kappa * x)
    if den == 0.0:
        raise SingularityError(
            f"density vanishes at kappa*x = {kappa * x}; ratio undefined"
        )
    return family.pdf(x) / den


def _times(x, unit):
    """x * unit in the style of ``:g``, exact where the product is beyond the floats."""
    product = x * unit
    if math.isfinite(product):
        return f"{product:g}"
    # imported here: it adds about 0.35 MB of peak RSS to `import tailratio.cli`
    import decimal

    six = decimal.Context(prec=6)  # the six significant digits of :g
    return f"{six.multiply(decimal.Decimal(x), decimal.Decimal(unit)).normalize(six):g}"


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

    The probe runs on the standard law, so the fields do not depend on the
    unit.  `probe_range` (lo, hi) is in the data's unit, each end checked
    there and divided by ``scale``; None at either end takes the default,
    support_lo/scale + 0.01 or + 50.  `notes` gives x in the data's unit.
    `grid_points` is an integer in 2..10**7.

    Purely diagnostic: finite sampling cannot establish integrability over
    (0, inf), so the report is evidence, never a verdict.
    """
    kappa = check_kappa(kappa)
    n = check_int(n, "n", 2, _N_MAX)

    data_edge, unit, family = family.support_lo, family.scale, family.standard_law()
    edge = family.support_lo
    lo, hi = (None, None) if probe_range is None else probe_range
    lo = edge + 0.01 if lo is None else check_real(
        lo, "probe_range[0]", data_edge, math.inf, "[)") / unit
    hi = edge + 50.0 if hi is None else check_real(
        hi, "probe_range[1]", data_edge, math.inf) / unit
    if not lo < hi < math.inf:  # a default end may cross a given one
        raise ParameterDomainError(f"probe_range must have lo < hi, each a float divided by "
                                   f"the scale {unit!r}, got ({lo * unit:g}, {hi * unit:g})")
    grid_points = check_int(grid_points, "grid_points", 2, _GRID_MAX)

    # (a) decay toward the lower support edge, where F(kappa*x) -> 0
    start = lo if lo > edge else edge + 1.0
    decay = []
    for k in (0, 29):  # 0 where F(kappa*x) is 0, else inf where p(kappa*x) is
        x = edge + (start - edge) * 2.0 ** -k
        f = family.cdf(kappa * x)
        den = family.pdf(kappa * x) if f > 0.0 else 0.0
        decay.append(f**n * family.pdf(x) / den if den else math.inf if f > 0.0 else 0.0)
    zero_limit_ok = decay[-1] < 1e-8 or decay[-1] < decay[0] / 100.0

    # (b) total variation of r on the common support {x >= edge, kappa*x >= edge}
    g_lo = max(lo, edge / kappa if edge > 0.0 else lo)
    step = (hi - g_lo) / (grid_points - 1)

    def finite_ratios():  # r at the points of np.linspace(g_lo, hi, grid_points) where finite
        for i in range(grid_points):
            x = i * step + g_lo if i < grid_points - 1 else hi
            den = kappa * family.pdf(kappa * x)
            r = family.pdf(x) / den if den else math.inf
            if math.isfinite(r):
                yield r

    integrand_integral = math.fsum(abs(b - a) for a, b in pairwise(finite_ratios()))

    ratio = boundary_ratio(family, kappa, hi)
    notes = (  # x in the data's unit
        f"edge probe at x -> {data_edge:g}: first {decay[0]:.3e}, last {decay[-1]:.3e}; "
        f"integral of |g| over [{_times(g_lo, unit)}, {_times(hi, unit)}] = "
        f"{integrand_integral:.3e}; boundary ratio at x = {_times(hi, unit)}: {ratio:.6e}"
    )
    return ConditionReport(family.name, family.params, n, kappa, ratio, zero_limit_ok,
                           integrand_integral, notes)
