"""Catalog of analytically specified distribution families.

Each family describes the law of a magnitude ``|X|`` on ``[support_lo, inf)`` by
whatever closed forms it admits (density, CDF, quantile) plus a
reproducible sampler.  Every family but ``stable`` (the signed ``X``)
samples ``|X|``, by inverse transform, ``_quantile`` of uniforms, except
``half_normal``, which takes ``sigma * |Z|`` of standard normals ``Z``.
Heavy-tailed members (Pareto, half-Cauchy, symmetric stable) carry a nominal
tail index; the light-tailed controls (exponential, half-normal) do not.

A closed form (density, CDF, upper quantile) is computed with ``math``, so
that quadrature loads no numpy and prints the same digits on every CPU; it
is a bare formula, since the accessors of :class:`TailFamily` apply the
law's edges, and each accessor takes one float and returns one.  The
sampler, and the inverse-transform quantile form it calls, take and return
numpy arrays; numpy is imported on their first use.  Each family with a
quantile also writes out its upper-tail form, the x with 1 - F(x) = v,
rather than taking the quantile at 1 - v: quadrature asks for v as small
as 1e-290, which 1 - v would round away.  The half-normal family's two
quantile forms are the two-sided normal quantile of :mod:`.intervals`, its
level and its tail form, which only ``make_half_normal`` imports.

Families are immutable (a slotted class whose fields cannot be assigned) and
safe to share across threads; sampling is a pure function of
``(family, count, seed)``.
"""

import math
import sys

from .errors import CapabilityError, ParameterDomainError, check_int, check_real
from .rng import substream


class _Numpy:
    """numpy, imported on the first use of a sampler or a numpy quantile form.

    That first attribute access binds the module's ``np`` to numpy itself,
    so a later draw finds it as if it were imported at the top.
    """

    def __getattr__(self, name):
        global np
        import numpy as np

        return getattr(np, name)


np = _Numpy()


class TailFamily:
    """A distribution family for the magnitude law, with optional closed forms.

    Callable fields may be ``None``; the corresponding accessor then raises
    :class:`CapabilityError`.  The closed forms are bare formulas of the
    standard law; only the accessors apply ``scale`` (``xm``, 1/rate, sigma),
    as ``_pdf(x/scale)/scale``, ``_cdf(x/scale)`` and ``scale`` times a
    quantile or a sample, and the law's edges and plain floats (see each).
    Without a ``_sampler``, sampling calls ``_quantile`` on an array of
    uniforms, which that form must then take; the accessor takes one float.
    ``_upper_quantile`` is the upper-tail form, ``quantile(u, upper=True)``.
    The support is ``[support_lo, inf)``, ``support_lo`` being ``xm`` for
    Pareto, 0 otherwise.  ``mean`` is the standard law's mean (a symmetric
    law's centre), the data's being ``scale * mean``, or ``None`` where it
    is infinite or not given.  Assigning to a field raises AttributeError.
    """

    __slots__ = ("name", "params", "scale", "tail_index", "support_lo", "mean",
                 "_pdf", "_cdf", "_quantile", "_upper_quantile", "_sampler")

    def __init__(self, name, params=None, scale=1.0, tail_index=None, support_lo=0.0,
                 mean=None, _pdf=None, _cdf=None, _quantile=None, _upper_quantile=None,
                 _sampler=None):
        params = {} if params is None else params
        given = locals()  # each slot is the parameter of its name
        for attr in self.__slots__:
            object.__setattr__(self, attr, given[attr])

    def __setattr__(self, attr, *value):
        raise AttributeError(f"TailFamily is immutable: {attr!r} cannot change")

    __delattr__ = __setattr__

    def _require(self, attr, what):
        fn = getattr(self, attr)
        if fn is None:
            raise CapabilityError(f"family {self.name!r} has no {what}")
        return fn

    def pdf(self, x):
        """Density p(x) of the magnitude law at the float x, a float, 0.0 below the support."""
        form = self._require("_pdf", "density")
        return 0.0 if x < self.support_lo else float(form(x / self.scale)) / self.scale

    def cdf(self, x):
        """Distribution function F(x) at the float x, a float, 0.0 below the support."""
        form = self._require("_cdf", "cdf")
        return 0.0 if x < self.support_lo else float(form(x / self.scale))

    def quantile(self, u, upper=False):
        """Inverse CDF of the magnitude law at the float level u in [0, 1], a float.

        With `upper`, the x with 1 - F(x) = u, as R's ``lower.tail = FALSE``.  The
        full end (u = 0; with `upper`, 1) is ``support_lo``, the empty end inf (the
        support is unbounded above), as is a quantile past the floats.
        """
        form = self._require("_upper_quantile" if upper else "_quantile", "quantile")
        if u < 0.0 or u > 1.0:  # so a NaN reaches the form
            raise ParameterDomainError(f"u must be a level in [0, 1], got {u!r}")
        if u == 0.0 or u == 1.0:  # the full end is u == upper
            return self.support_lo if u == upper else math.inf
        try:
            return self.scale * float(form(u))
        except OverflowError:  # where math raises, numpy's form gives inf
            return math.inf

    def sample(self, count, seed):
        """Draw `count` i.i.d. magnitudes (``stable``: signed values), deterministic in `seed`."""
        return self.sample_with(substream(seed), count)

    def sample_with(self, rng, count):
        """Draw `count` values from an already-constructed generator.

        A new float array that belongs to the caller: at scale 1 it is the
        sampler's (or quantile's) own array, not a copy of it.
        """
        count = check_int(count, "count", 1)
        if (sampler := self._sampler) is not None:
            values = sampler(rng, count)
        else:  # raises CapabilityError before drawing when there is no quantile either
            values = self._require("_quantile", "sampler")(rng.random(count))
        return values if self.scale == 1.0 else self.scale * values

    def standard_law(self):
        """The family in its own unit: scale 1, and the support edge divided by the scale."""
        fields = {attr: getattr(self, attr) for attr in self.__slots__}
        return TailFamily(**fields | {"scale": 1.0, "support_lo": self.support_lo / self.scale})


def make_pareto(alpha, xm=1.0):
    """Pareto family: F(x) = 1 - (xm/x)**alpha for x >= xm, at scale xm.

    The canonical regularly varying family; p(x)/(kappa*p(kappa*x)) equals
    kappa**alpha identically, so every finite-n outlier probability already
    sits at its limiting value.
    """
    alpha = check_real(alpha, "alpha", 0, math.inf)
    xm = check_real(xm, "xm", 0, math.inf)

    def pdf(x):
        return alpha * math.pow(x, -alpha - 1.0)

    def cdf(x):
        return -math.expm1(-alpha * math.log(x))

    def quantile(u):
        return (1.0 - u) ** (-1.0 / alpha)

    def upper_quantile(v):
        return math.pow(v, -1.0 / alpha)

    return TailFamily(
        name="pareto",
        params={"alpha": alpha, "xm": xm},
        scale=xm,
        tail_index=alpha,
        support_lo=xm,
        mean=alpha / (alpha - 1.0) if alpha > 1.0 else None,
        _pdf=pdf,
        _cdf=cdf,
        _quantile=quantile,
        _upper_quantile=upper_quantile,
    )


def make_half_cauchy(scale=1.0):
    """Half-Cauchy family: F(x) = (2/pi) * arctan(x/scale), tail index 1."""
    s = check_real(scale, "scale", 0, math.inf)

    def pdf(x):
        return (2.0 / math.pi) / (1.0 + x * x)

    def cdf(x):
        return (2.0 / math.pi) * math.atan(x)

    def quantile(u):
        # three array passes, not four: halving is exact, so (pi*u)/2 == (pi/2)*u
        return np.tan(u * (np.pi / 2.0))

    def upper_quantile(v):
        return 1.0 / math.tan(v * (math.pi / 2.0))

    return TailFamily(
        name="half_cauchy",
        params={"scale": s},
        scale=s,
        tail_index=1.0,
        _pdf=pdf,
        _cdf=cdf,
        _quantile=quantile,
        _upper_quantile=upper_quantile,
    )


def make_exponential(rate=1.0):
    """Exponential family, a light-tailed control with no tail index."""
    r = check_real(rate, "rate", 1 / sys.float_info.max, math.inf)  # so 1/rate is a float

    def pdf(x):
        return math.exp(-x)

    def cdf(x):
        return -math.expm1(-x)

    def quantile(u):
        return -np.log1p(-u)

    def upper_quantile(v):
        return -math.log(v)

    return TailFamily(
        name="exponential",
        params={"rate": r},
        scale=1.0 / r,
        mean=1.0,
        _pdf=pdf,
        _cdf=cdf,
        _quantile=quantile,
        _upper_quantile=upper_quantile,
    )


def make_half_normal(sigma=1.0):
    """Half-normal family, the second light-tailed control."""
    from .intervals import _level_z, _tail_z

    s = check_real(sigma, "sigma", 0, math.inf)

    def pdf(x):
        return math.sqrt(2.0 / math.pi) * math.exp(-0.5 * (x * x))

    def cdf(x):
        return math.erf(x / math.sqrt(2.0))

    def sampler(rng, size):
        # not the quantile of uniforms: the scalar ndtri is 100 times slower
        return np.abs(rng.standard_normal(size))

    return TailFamily(
        name="half_normal",
        params={"sigma": s},
        scale=s,
        mean=math.sqrt(2.0 / math.pi),
        _pdf=pdf,
        _cdf=cdf,
        _quantile=_level_z,
        _upper_quantile=_tail_z,
        _sampler=sampler,
    )


def make_symmetric_stable(alpha, scale=1.0):
    """Symmetric alpha-stable family, sampler-only.

    Uses the Chambers-Mallows-Stuck construction: with U uniform on
    (-pi/2, pi/2) and E standard exponential,

        X = scale * sin(alpha*U) / cos(U)**(1/alpha)
                  * (cos((1-alpha)*U) / E)**((1-alpha)/alpha),

    degenerating to X = scale * tan(U) at alpha = 1 (Cauchy).  No closed
    form exists for F or p, so only the sampler capability is set.  At
    alpha = 2 the law is normal (variance 2*scale**2) and carries no tail
    index.

    The sampler evaluates that X through tan alone, by three identities
    that hold for |U| < pi/2 and 0 < alpha <= 2:

        sin(alpha*U)        = 2t / (1 + t**2),  t = tan(alpha*U/2)
        cos(U)**(-1/alpha)  = (1 + tan(U)**2)**(1/(2*alpha))
        cos((1-alpha)*U)    = (1 + tan((1-alpha)*U)**2)**(-1/2)

    numpy 2.4 runs float64 tan in an AVX-512 loop (about 3 ns an element on
    a Xeon), but sin and cos through scalar libm (15-18 ns), so there this
    takes the transform from about 55 to 25 ns a variate, next to 15 ns for
    drawing U and E; without AVX-512, tan is scalar too.  The result is the
    textbook form's within a few ulps.  The draws are the same, U then E,
    and the work is done in place on arrays that belong to the call, so the
    family stays safe to share across threads.
    """
    a = check_real(alpha, "alpha", 0, 2, "(]")
    s = check_real(scale, "scale", 0, math.inf)

    def sampler(rng, size):
        u = rng.uniform(-np.pi / 2.0, np.pi / 2.0, size)
        if a == 1.0:
            return np.tan(u)
        e = rng.standard_exponential(size)
        # e <- (sqrt(1 + tan((1-a)u)**2) * e)**((a-1)/a)
        w = np.multiply(u, 1.0 - a)
        np.tan(w, out=w)
        w *= w
        w += 1.0
        np.sqrt(w, out=w)
        e *= w
        np.power(e, (a - 1.0) / a, out=e)
        # u <- (1 + tan(u)**2)**(1/(2a)) * e, after w <- t = tan(a u/2)
        np.multiply(u, a / 2.0, out=w)
        np.tan(w, out=w)
        np.tan(u, out=u)
        u *= u
        u += 1.0
        np.power(u, 0.5 / a, out=u)
        u *= e
        # w <- 2 t / (1 + t**2) * u
        np.multiply(w, w, out=e)
        e += 1.0
        w /= e
        w *= u
        w *= 2.0
        return w

    return TailFamily(
        name="stable",
        params={"alpha": a, "scale": s},
        scale=s,
        tail_index=a if a < 2.0 else None,
        mean=0.0,  # the centre of symmetry: the mean whenever alpha > 1
        _sampler=sampler,
    )


_MAKERS = {
    "pareto": make_pareto,
    "half_cauchy": make_half_cauchy,
    "exponential": make_exponential,
    "half_normal": make_half_normal,
    "stable": make_symmetric_stable,
}


def parse_family_spec(spec):
    """Build a family from a ``name:key=value,key=value`` string.

    Parsing is case-insensitive; hyphens in the name are treated as
    underscores.  The keys are the parameter names of the family's maker
    (``make_pareto``'s ``alpha`` and ``xm``, and so on), and the maker's
    defaults fill the keys left out.  An unknown name or key, a key given
    twice, or a missing key that has no default, raises
    :class:`~tailratio.errors.ParameterDomainError`.
    """
    text = str(spec).strip().lower()
    name, _, rest = text.partition(":")
    name = name.strip().replace("-", "_")
    if name not in _MAKERS:
        known = ", ".join(sorted(_MAKERS))
        raise ParameterDomainError(f"unknown family {name!r} (known: {known})")
    maker = _MAKERS[name]
    code = maker.__code__
    keys = code.co_varnames[:code.co_argcount]
    kwargs = {}
    if rest.strip():
        for item in rest.split(","):
            key, sep, value = item.partition("=")
            key = key.strip()
            if not sep or not key:
                raise ParameterDomainError(f"malformed parameter {item!r} in {spec!r}")
            if key not in keys:
                raise ParameterDomainError(
                    f"unknown parameter {key!r} for family {name!r}"
                )
            if key in kwargs:
                raise ParameterDomainError(f"parameter {key!r} given twice in {spec!r}")
            kwargs[key] = value
    if not kwargs.keys() >= set(keys[:len(keys) - len(maker.__defaults__ or ())]):
        raise ParameterDomainError(
            f"family {name!r} is missing a required parameter in {spec!r}"
        )
    return maker(**kwargs)
