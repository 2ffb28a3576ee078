"""Catalog of analytically specified distribution families.

Each family describes the law of a magnitude ``|X|`` on ``[0, inf)`` through
whatever closed forms it admits (density, CDF, density derivative, quantile)
plus a reproducible sampler.  A family with a quantile samples ``|X|`` by
inverse transform unless it supplies its own sampler for the signed ``X``.
Heavy-tailed members (Pareto, half-Cauchy, symmetric stable) carry a nominal
tail index; the light-tailed controls (exponential, half-normal) do not.

Families are immutable and safe to share across threads; sampling is a pure
function of ``(family, count, seed)``.
"""

from dataclasses import dataclass, field

import numpy as np

from .errors import CapabilityError, ParameterDomainError, check_int, check_real
from .records import _fmt
from .rng import substream


@dataclass(frozen=True)
class TailFamily:
    """A distribution family for the magnitude law, with optional closed forms.

    Callable fields may be ``None``; the corresponding ``has_*`` capability
    flag is then unset and the accessor raises :class:`CapabilityError`.
    Without a ``_sampler``, sampling is ``quantile`` of uniforms.
    ``support_lo`` is the lower edge of the magnitude support (``xm`` for
    Pareto, 0 otherwise).
    """

    name: str
    params: dict = field(default_factory=dict)
    tail_index: float | None = None
    support_lo: float = 0.0
    _pdf: callable = None
    _cdf: callable = None
    _pdf_derivative: callable = None
    _quantile: callable = None
    _sampler: callable = None

    @property
    def has_pdf(self):
        return self._pdf is not None

    @property
    def has_cdf(self):
        return self._cdf is not None

    @property
    def has_pdf_derivative(self):
        return self._pdf_derivative is not None

    @property
    def has_quantile(self):
        return self._quantile is not None

    @property
    def has_sampler(self):
        return self._sampler is not None or self._quantile is not None

    def _require(self, attr, what):
        fn = getattr(self, attr)
        if fn is None:
            raise CapabilityError(f"family {self.name!r} has no {what}")
        return fn

    def pdf(self, x):
        """Density p(x) of the magnitude law."""
        return self._require("_pdf", "density")(np.asarray(x, dtype=float))

    def cdf(self, x):
        """Distribution function F(x) of the magnitude law."""
        return self._require("_cdf", "cdf")(np.asarray(x, dtype=float))

    def pdf_derivative(self, x):
        """p'(x)."""
        return self._require("_pdf_derivative", "density derivative")(
            np.asarray(x, dtype=float)
        )

    def quantile(self, u):
        """Inverse CDF of the magnitude law."""
        return self._require("_quantile", "quantile")(np.asarray(u, dtype=float))

    def sample(self, count, seed):
        """Draw `count` i.i.d. signed values, deterministic in `seed`."""
        return self.sample_with(substream(seed), count)

    def sample_with(self, rng, count):
        """Draw `count` values from an already-constructed generator."""
        count = check_int(count, "count", 1)
        if self._sampler is not None:
            return self._sampler(rng, count)
        return self._require("_quantile", "sampler")(rng.random(count))

    def spec_string(self):
        """Round-trippable ``name:key=value,...`` form."""
        inner = ",".join(f"{k}={_fmt(v)}" for k, v in self.params.items())
        return f"{self.name}:{inner}"


def sample(family, count, seed):
    """Module-level alias for :meth:`TailFamily.sample`."""
    return family.sample(count, seed)


def make_pareto(alpha, xm=1.0):
    """Pareto family: F(x) = 1 - (xm/x)**alpha for x >= xm.

    The canonical regularly varying family; p(x)/(kappa*p(kappa*x)) equals
    kappa**alpha identically, so every finite-n outlier probability already
    sits at its limiting value.
    """
    alpha = check_real(alpha, "alpha", 0, np.inf)
    xm = check_real(xm, "xm", 0, np.inf)

    def pdf(x):
        return np.where(x >= xm, alpha * xm**alpha * x ** (-alpha - 1.0), 0.0)

    def cdf(x):
        return np.where(x >= xm, -np.expm1(alpha * (np.log(xm) - np.log(np.maximum(x, xm)))), 0.0)

    def pdf_derivative(x):
        return np.where(
            x >= xm, -alpha * (alpha + 1.0) * xm**alpha * x ** (-alpha - 2.0), 0.0
        )

    def quantile(u):
        # sampling feeds u in [0, 1), so 1 - u in (0, 1] never hits the pole
        return xm * (1.0 - u) ** (-1.0 / alpha)

    return TailFamily(
        name="pareto",
        params={"alpha": alpha, "xm": xm},
        tail_index=alpha,
        support_lo=xm,
        _pdf=pdf,
        _cdf=cdf,
        _pdf_derivative=pdf_derivative,
        _quantile=quantile,
    )


def make_half_cauchy(scale=1.0):
    """Half-Cauchy family: F(x) = (2/pi) * arctan(x/scale), tail index 1."""
    s = check_real(scale, "scale", 0, np.inf)

    def pdf(x):
        return (2.0 / np.pi) * s / (s * s + x * x)

    def cdf(x):
        return (2.0 / np.pi) * np.arctan(x / s)

    def pdf_derivative(x):
        return -(2.0 / np.pi) * s * 2.0 * x / (s * s + x * x) ** 2

    def quantile(u):
        return s * np.tan(np.pi * u / 2.0)

    def sampler(rng, size):
        return np.abs(s * np.tan(np.pi * (rng.random(size) - 0.5)))

    return TailFamily(
        name="half_cauchy",
        params={"scale": s},
        tail_index=1.0,
        _pdf=pdf,
        _cdf=cdf,
        _pdf_derivative=pdf_derivative,
        _quantile=quantile,
        _sampler=sampler,
    )


def make_exponential(rate=1.0):
    """Exponential family, a light-tailed control with no tail index."""
    r = check_real(rate, "rate", 0, np.inf)

    def pdf(x):
        return r * np.exp(-r * x)

    def cdf(x):
        return -np.expm1(-r * x)

    def pdf_derivative(x):
        return -r * r * np.exp(-r * x)

    def quantile(u):
        return -np.log1p(-u) / r

    return TailFamily(
        name="exponential",
        params={"rate": r},
        _pdf=pdf,
        _cdf=cdf,
        _pdf_derivative=pdf_derivative,
        _quantile=quantile,
    )


def make_half_normal(sigma=1.0):
    """Half-normal family, the second light-tailed control."""
    from scipy import special  # here, so the other families skip its import

    s = check_real(sigma, "sigma", 0, np.inf)
    c = np.sqrt(2.0 / np.pi) / s

    def pdf(x):
        return c * np.exp(-0.5 * (x / s) ** 2)

    def cdf(x):
        return special.erf(x / (s * np.sqrt(2.0)))

    def pdf_derivative(x):
        return -x / (s * s) * pdf(x)

    def quantile(u):
        return s * special.ndtri((1.0 + u) / 2.0)

    return TailFamily(
        name="half_normal",
        params={"sigma": s},
        _pdf=pdf,
        _cdf=cdf,
        _pdf_derivative=pdf_derivative,
        _quantile=quantile,
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
    """
    a = check_real(alpha, "alpha", 0, 2, "(]")
    s = check_real(scale, "scale", 0, np.inf)

    def sampler(rng, size):
        u = rng.uniform(-np.pi / 2.0, np.pi / 2.0, size)
        if a == 1.0:
            return s * np.tan(u)
        e = rng.standard_exponential(size)
        return (
            s
            * np.sin(a * u)
            / np.cos(u) ** (1.0 / a)
            * (np.cos((1.0 - a) * u) / e) ** ((1.0 - a) / a)
        )

    return TailFamily(
        name="stable",
        params={"alpha": a, "scale": s},
        tail_index=a if a < 2.0 else None,
        _sampler=sampler,
    )


_MAKERS = {
    "pareto": (make_pareto, {"alpha", "xm"}),
    "half_cauchy": (make_half_cauchy, {"scale"}),
    "exponential": (make_exponential, {"rate"}),
    "half_normal": (make_half_normal, {"sigma"}),
    "stable": (make_symmetric_stable, {"alpha", "scale"}),
}


def parse_family_spec(spec):
    """Build a family from a ``name:key=value,key=value`` string.

    Parsing is case-insensitive; hyphens in the name are treated as
    underscores.  Unknown names or keys raise
    :class:`~tailratio.errors.ParameterDomainError`.
    """
    text = str(spec).strip().lower()
    name, _, rest = text.partition(":")
    name = name.strip().replace("-", "_")
    if name not in _MAKERS:
        known = ", ".join(sorted(_MAKERS))
        raise ParameterDomainError(f"unknown family {name!r} (known: {known})")
    maker, allowed = _MAKERS[name]
    kwargs = {}
    if rest.strip():
        for item in rest.split(","):
            key, sep, value = item.partition("=")
            key = key.strip()
            if not sep or not key:
                raise ParameterDomainError(f"malformed parameter {item!r} in {spec!r}")
            if key not in allowed:
                raise ParameterDomainError(
                    f"unknown parameter {key!r} for family {name!r}"
                )
            kwargs[key] = value
    try:
        return maker(**kwargs)
    except TypeError:
        raise ParameterDomainError(
            f"family {name!r} is missing a required parameter in {spec!r}"
        ) from None
