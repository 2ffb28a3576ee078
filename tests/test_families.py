"""Distribution-family catalog: closed forms, samplers, spec strings."""

import inspect
import math
import warnings
from functools import partial

import mpmath
import numpy as np
import pytest
from scipy import integrate, special, stats

import tailratio as tr
from tailratio.errors import CapabilityError, ParameterDomainError
from tailratio.rng import substream

FULL_FAMILIES = [
    tr.make_pareto(1.5, 1.0),
    tr.make_pareto(0.5, 2.0),
    tr.make_half_cauchy(1.0),
    tr.make_half_cauchy(2.0),
    tr.make_exponential(1.0),
    tr.make_exponential(0.5),
    tr.make_half_normal(1.0),
]


def spec_id(fam):
    # the family as a spec string, name:key=value,...
    return fam.name + ":" + ",".join(f"{k}={v:.17g}" for k, v in fam.params.items())


def pointwise(form, xs):
    # the closed forms take one float: evaluate one along an array
    return np.array([form(x) for x in xs])


def bisect_quantile(family, u, lo, hi, iters=200):
    # independent inverse of F, used as the oracle for quantile values
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        if float(family.cdf(mid)) < u:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


class TestPareto:
    def test_cdf_value(self):
        assert tr.make_pareto(1, 1).cdf(2.0) == pytest.approx(0.5)

    def test_pdf_value(self):
        assert tr.make_pareto(2, 1).pdf(1.0) == pytest.approx(2.0)

    def test_quantile_against_bisection(self):
        # oracle: bisection on F; 1 - x**-1.5 = 0.875 solves to x = 4
        fam = tr.make_pareto(1.5, 1.0)
        oracle = bisect_quantile(fam, 0.875, 1.0, 100.0)
        assert oracle == pytest.approx(4.0, abs=1e-10)
        assert fam.quantile(0.875) == pytest.approx(4.0, abs=1e-12)

    def test_quantile_against_bisection_alpha3(self):
        fam = tr.make_pareto(3.0, 1.0)
        assert bisect_quantile(fam, 0.875, 1.0, 100.0) == pytest.approx(2.0, abs=1e-10)
        assert fam.quantile(0.875) == pytest.approx(2.0, abs=1e-12)

    def test_below_support(self):
        fam = tr.make_pareto(1.5, 1.0)
        for x in (0.0, 0.5, np.nextafter(1.0, 0.0)):
            assert fam.cdf(x) == 0.0
            assert fam.pdf(x) == 0.0

    def test_density_ratio_identity(self):
        # p(x)/(kappa p(kappa x)) == kappa**alpha wherever both points are in support
        fam = tr.make_pareto(1.7, 1.0)
        kappa = 0.4
        for x in np.linspace(1.0 / kappa, 50.0, 23):
            ratio = float(fam.pdf(x)) / (kappa * float(fam.pdf(kappa * x)))
            assert ratio == pytest.approx(kappa**1.7, rel=1e-12)

    @pytest.mark.parametrize("bad", [(-1, 1), (0, 1), (1, 0), (1, -2)])
    def test_bad_params(self, bad):
        with pytest.raises(ParameterDomainError):
            tr.make_pareto(*bad)


class TestHalfCauchy:
    def test_cdf_median(self):
        assert tr.make_half_cauchy(1).cdf(1.0) == pytest.approx(0.5)
        assert tr.make_half_cauchy(2).cdf(2.0) == pytest.approx(0.5)

    def test_pdf_at_zero(self):
        assert tr.make_half_cauchy(1).pdf(0.0) == pytest.approx(2.0 / np.pi)

    def test_bad_scale(self):
        with pytest.raises(ParameterDomainError):
            tr.make_half_cauchy(0.0)


class TestLightTails:
    def test_exponential_median(self):
        assert tr.make_exponential(1).cdf(np.log(2.0)) == pytest.approx(0.5)

    def test_exponential_density_ratio(self):
        # oracle: p(x)/(kappa p(kappa x)) = exp(-(1-kappa)*x)/kappa for rate 1
        fam = tr.make_exponential(1.0)
        kappa, x = 0.5, 10.0
        oracle = np.exp(-(1.0 - kappa) * x) / kappa
        assert oracle == pytest.approx(0.013476, abs=1e-6)
        got = float(fam.pdf(x)) / (kappa * float(fam.pdf(kappa * x)))
        assert got == pytest.approx(oracle, rel=1e-12)

    def test_half_normal_tail_mass(self):
        assert tr.make_half_normal(1).cdf(8.0) > 1.0 - 1e-14

    def test_no_tail_index(self):
        assert tr.make_exponential(1).tail_index is None
        assert tr.make_half_normal(1).tail_index is None


@pytest.mark.parametrize(
    "form, x, want",
    [
        (tr.make_pareto(0.005).quantile, 0.999, math.inf),
        (tr.make_half_normal(1.0).pdf, 1e200, 0.0),
        (tr.make_half_cauchy(1e-320).pdf, 0.0, math.inf),
    ],
)
def test_forms_overflow_like_numpy(form, x, want):
    # a Python float ** or / here would raise OverflowError or ZeroDivisionError
    with np.errstate(all="ignore"):
        assert form(x) == want


# at inf, at 0 and where math raises OverflowError, a closed form returns numpy's value;
# below the support, 0.0
@pytest.mark.parametrize("form, x, want", [
    (partial(tr.make_pareto(0.01).quantile, upper=True), 1e-300, math.inf),
    (partial(tr.make_pareto(1.5).quantile, upper=True), 0.0, math.inf),
    (partial(tr.make_half_cauchy(1.0).quantile, upper=True), 0.0, math.inf),
    (partial(tr.make_exponential(1.0).quantile, upper=True), 0.0, math.inf),
    (tr.make_exponential(1.0).pdf, -1000.0, 0.0),
    (tr.make_exponential(1.0).cdf, -1000.0, 0.0),
    (tr.make_pareto(1.5).pdf, math.inf, 0.0),
    (tr.make_pareto(1.5).cdf, math.inf, 1.0),
    (tr.make_half_cauchy(1.0).pdf, 1e200, 0.0),
], ids=["pareto-quantile-overflow", "pareto-quantile-0", "half_cauchy-quantile-0",
        "exponential-quantile-0", "exponential-pdf", "exponential-cdf", "pareto-pdf-inf",
        "pareto-cdf-inf", "half_cauchy-pdf"])
def test_closed_forms_return_numpys_value_where_math_raises(form, x, want):
    got = form(x)
    assert type(got) is float and got == want


@pytest.mark.parametrize("fam", [
    tr.make_pareto(1.5), tr.make_half_cauchy(1.0), tr.make_exponential(1.0),
    tr.make_half_normal(1.0),
], ids=lambda fam: fam.name)
def test_closed_forms_are_plain_floats(fam):
    # math, not numpy: the digits are libm's on every CPU
    for x in (0.5, 2.0, 40.0):
        assert type(fam.pdf(x)) is float and type(fam.cdf(x)) is float
    for v in (1e-300, 0.25, 1.0):
        assert type(fam.quantile(v, upper=True)) is float
    assert type(fam.quantile(0.3)) is float  # the lower tail too, numpy forms included


@pytest.mark.parametrize("fam", [
    tr.make_pareto(1.5), tr.make_half_cauchy(1.0), tr.make_exponential(1.0),
    tr.make_half_normal(1.0),
], ids=lambda fam: fam.name)
def test_forms_are_zero_below_the_support(fam):
    for x in (-1.0, -1000.0, -math.inf):
        for form in (fam.pdf, fam.cdf):
            got = form(x)
            assert type(got) is float and got == 0.0
    # a NaN is not below the support: it reaches the form
    assert math.isnan(fam.pdf(math.nan)) and math.isnan(fam.cdf(math.nan))


def test_accessor_applies_the_support_before_the_form():
    fam = tr.TailFamily(name="t", support_lo=2.0, _pdf=lambda x: 1 / 0, _cdf=lambda x: 1 / 0)
    assert fam.pdf(1.0) == 0.0 and fam.cdf(1.0) == 0.0
    with pytest.raises(CapabilityError):  # a missing form is refused even below the support
        tr.TailFamily(name="t", support_lo=2.0).pdf(1.0)


def test_accessor_returns_a_plain_float_for_a_numpy_form():
    fam = tr.TailFamily(name="t", _pdf=np.exp, _cdf=np.tanh, _upper_quantile=np.log)
    for got in (fam.pdf(0.5), fam.cdf(0.5), fam.quantile(0.5, upper=True)):
        assert type(got) is float


@pytest.mark.parametrize("fam, edge", [
    (tr.make_pareto(1.5, 3.0), 3.0), (tr.make_half_cauchy(2.0), 0.0),
    (tr.make_exponential(0.5), 0.0), (tr.make_half_normal(2.0), 0.0),
], ids=["pareto", "half_cauchy", "exponential", "half_normal"])
class TestQuantileEnds:
    # one rule for both tails: a float level in [0, 1] in, a float out
    def test_full_end_is_the_support_edge(self, fam, edge):
        for got in (fam.quantile(0.0), fam.quantile(1.0, upper=True)):
            assert type(got) is float and got == edge and math.copysign(1.0, got) == 1.0

    def test_empty_end_is_inf(self, fam, edge):
        assert fam.quantile(1.0) == math.inf and fam.quantile(0.0, upper=True) == math.inf

    @pytest.mark.parametrize("upper", [False, True])
    @pytest.mark.parametrize("u", [-0.1, 1.5, -math.inf, math.inf])
    def test_level_outside_the_unit_interval_is_refused(self, fam, edge, u, upper):
        with pytest.raises(ParameterDomainError, match=r"u must be a level in \[0, 1\]"):
            fam.quantile(u, upper=upper)

    @pytest.mark.parametrize("upper", [False, True])
    def test_nan_reaches_the_form(self, fam, edge, upper):
        assert math.isnan(fam.quantile(math.nan, upper=upper))

    def test_array_is_refused(self, fam, edge):
        with pytest.raises(ValueError, match="ambiguous"):
            fam.quantile(np.array([0.2, 0.4]))


FIELDS = ("name", "params", "scale", "tail_index", "support_lo", "mean",
          "_pdf", "_cdf", "_quantile", "_upper_quantile", "_sampler")


class TestTailFamilyType:
    def test_defaults_and_a_fresh_params_dict(self):
        fam = tr.TailFamily(name="t")
        assert [getattr(fam, f) for f in FIELDS] == ["t", {}, 1.0, None, 0.0, None] + [None] * 5
        assert fam.params is not tr.TailFamily("t").params

    @pytest.mark.parametrize("field", FIELDS)
    def test_field_cannot_be_assigned_or_deleted(self, field):
        fam = tr.make_pareto(1.5, 3.0)
        before = getattr(fam, field)
        with pytest.raises(AttributeError):
            setattr(fam, field, 2.0)
        with pytest.raises(AttributeError):
            delattr(fam, field)
        assert getattr(fam, field) is before

    def test_no_field_can_be_added(self):
        with pytest.raises(AttributeError):
            tr.make_pareto(1.5).extra = 1.0

    @pytest.mark.parametrize("fam", [
        tr.make_pareto(1.5, 3.0), tr.make_half_normal(2.0), tr.make_symmetric_stable(0.6, 5.0),
    ], ids=lambda f: f.name)
    def test_standard_law_is_a_new_family_in_its_own_unit(self, fam):
        before = [getattr(fam, f) for f in FIELDS]
        law = fam.standard_law()
        assert type(law) is tr.TailFamily and law is not fam
        assert (law.scale, law.support_lo) == (1.0, fam.support_lo / fam.scale)
        for f in FIELDS:
            if f not in ("scale", "support_lo"):
                assert getattr(law, f) is getattr(fam, f), f  # every form and the params
        assert all(getattr(fam, f) is value for f, value in zip(FIELDS, before))


def test_quantile_without_the_form_is_refused_first():
    fam = tr.make_symmetric_stable(0.6)
    for u in (0.5, 1.5):
        with pytest.raises(CapabilityError, match="no quantile"):
            fam.quantile(u)


def test_pareto_lower_quantile_of_a_float_is_a_float():
    got = tr.make_pareto(1.5).quantile(0.3)
    assert type(got) is float and got == float.fromhex("0x1.44b81c08f5c25p+0")


class TestHalfNormal:
    # u in [0, 1]: both branches of ndtri, and x = sqrt(-2 log y) on both sides of 8
    U = np.concatenate([
        np.linspace(0.0, 1.0, 1001),
        1.0 - np.logspace(-16, -1, 60),
        np.logspace(-300, -1, 60),
        np.random.default_rng(5).random(10**4),
    ])

    @pytest.mark.parametrize("sigma", [1.0, 2.5])
    def test_quantile_is_scipy_ndtri(self, sigma):
        # the lower quantile; prob-exact's integrand takes the upper form.  From
        # u = 1/2 up it is ndtri at the exact half-tail (1 - u)/2, bit for bit; below,
        # where ndtri could only take the rounded (1 + u)/2, within 3 ulps of mpmath
        got = pointwise(tr.make_half_normal(sigma).quantile, self.U)
        high = self.U >= 0.5
        want = sigma * -special.ndtri((1.0 - self.U[high]) / 2.0)
        assert got[high].tobytes() == want.tobytes()
        with mpmath.workdps(30):
            z = [float(mpmath.sqrt(2) * mpmath.erfinv(u)) for u in self.U[~high].tolist()]
        ulps = got[~high].view(np.int64) - (sigma * np.array(z)).view(np.int64)
        assert np.abs(ulps).max() <= 3

    def test_quantile_next_to_1_is_the_upper_form(self):
        fam = tr.make_half_normal()  # 0.9999999999999999 is 1 - 2**-53
        assert fam.quantile(0.9999999999999999) == fam.quantile(2.0**-53, upper=True) \
            == 8.292361075813597

    @pytest.mark.parametrize("sigma", [1.0, 2.5])
    def test_cdf_within_two_ulps_of_scipy_erf(self, sigma):
        # libm's erf and scipy's Cephes erf differ by up to 2 ulps: at sigma 1,
        # x = 0.12, Cephes is 2 ulps below the correctly rounded value and
        # libm is on it
        x = np.concatenate([np.linspace(0.0, 10.0, 2001), np.logspace(-300, 1, 300)]) * sigma
        got = pointwise(tr.make_half_normal(sigma).cdf, x)
        want = special.erf(x / (sigma * np.sqrt(2.0)))
        assert (np.abs(got - want) <= 2 * np.spacing(want)).all()

    def test_sample_mean(self):
        # the sampler's law against its cdf is TestFullCapabilityInvariants'
        # Kolmogorov test; this checks its scale.  The sd of |Z| is
        # sqrt(1 - 2/pi) = 0.60, so the mean of 1e5 is within 4 sd by 0.0076
        sigma = 3.0
        x = tr.make_half_normal(sigma).sample(10**5, 78)
        assert x.min() >= 0.0
        assert x.mean() == pytest.approx(sigma * np.sqrt(2.0 / np.pi), abs=4 * 0.0019 * sigma)


class TestSymmetricStable:
    def test_cauchy_case_median(self):
        # oracle: direct Cauchy sampler tan(pi*(U-1/2)) has |X| median tan(pi/4) = 1
        rng = np.random.default_rng(0)
        oracle = np.median(np.abs(np.tan(np.pi * (rng.random(10**5) - 0.5))))
        assert oracle == pytest.approx(1.0, abs=0.02)
        fam = tr.make_symmetric_stable(1.0, 1.0)
        x = fam.sample(10**5, 123)
        assert np.median(np.abs(x)) == pytest.approx(1.0, abs=0.05)

    def test_gaussian_case_variance(self):
        fam = tr.make_symmetric_stable(2.0, 1.0)
        x = fam.sample(10**5, 321)
        assert x.var() == pytest.approx(2.0, rel=0.05)
        assert fam.tail_index is None

    def test_centred_at_zero(self):
        for alpha in (0.6, 1.0, 1.5, 2.0):
            assert tr.make_symmetric_stable(alpha, 3.0).mean == 0.0

    def test_sampler_only(self):
        fam = tr.make_symmetric_stable(0.6, 1.0)
        assert fam.sample(10, 1).shape == (10,)
        for accessor in (fam.cdf, fam.pdf):
            with pytest.raises(CapabilityError):
                accessor(1.0)

    @pytest.mark.parametrize("alpha", [0.0, -0.5, 2.5])
    def test_bad_alpha(self, alpha):
        with pytest.raises(ParameterDomainError):
            tr.make_symmetric_stable(alpha, 1.0)


def textbook_stable(u, e, alpha, scale):
    """Chambers-Mallows-Stuck as printed, with sin and cos."""
    return (scale * np.sin(alpha * u) / np.cos(u) ** (1.0 / alpha)
            * (np.cos((1.0 - alpha) * u) / e) ** ((1.0 - alpha) / alpha))


class DrawsGiven:
    """A generator stand-in whose uniforms and exponentials are the given arrays."""

    def __init__(self, u, e):
        self.u, self.e = np.array(u, dtype=float), np.array(e, dtype=float)

    def uniform(self, low, high, size):
        assert (low, high, size) == (-np.pi / 2.0, np.pi / 2.0, self.u.size)
        return self.u.copy()

    def standard_exponential(self, size):
        assert size == self.e.size
        return self.e.copy()


def assert_relatively_close(x, ref, rel):
    # finite on the same draws; the same value where not finite, within rel where finite
    finite = np.isfinite(ref)
    assert np.array_equal(np.isfinite(x), finite)
    assert np.array_equal(x[~finite], ref[~finite])
    assert np.all(np.abs(x[finite] - ref[finite]) <= rel * np.abs(ref[finite]))


STABLE_ALPHAS = [0.05, 0.1, 0.3, 0.6, 0.9, 1.2, 1.5, 1.9, 2.0]


class TestStableSampler:
    """The tan-only sampler is the textbook transform on the same draws."""

    @pytest.mark.parametrize("scale", [1.0, 2.5])
    @pytest.mark.parametrize("alpha", STABLE_ALPHAS)
    def test_textbook_transform(self, alpha, scale):
        count = 10**5
        x = tr.make_symmetric_stable(alpha, scale).sample_with(substream(17, 3), count)
        rng = substream(17, 3)
        u = rng.uniform(-np.pi / 2.0, np.pi / 2.0, count)
        e = rng.standard_exponential(count)
        assert_relatively_close(x, textbook_stable(u, e, alpha, scale), 4e-15 / min(alpha, 1.0))

    @pytest.mark.parametrize("scale", [1.0, 2.5])
    @pytest.mark.parametrize("alpha", STABLE_ALPHAS)
    def test_chosen_draws(self, alpha, scale):
        # -pi/2 is a value uniform(-pi/2, pi/2) can return; pi/2 is not
        edge = np.nextafter(np.pi / 2.0, 0.0)
        u = np.repeat([-np.pi / 2.0, -1e-300, 0.0, 1e-300, edge], 3)
        e = np.tile([0.25, 1.0, 4.0], 5)
        with np.errstate(over="ignore", divide="ignore"):
            x = tr.make_symmetric_stable(alpha, scale).sample_with(DrawsGiven(u, e), u.size)
            ref = textbook_stable(u, e, alpha, scale)
        assert_relatively_close(x, ref, 4e-15 / min(alpha, 1.0))

    @pytest.mark.parametrize("scale", [1.0, 2.5])
    def test_cauchy_is_scale_times_tan(self, scale):
        x = tr.make_symmetric_stable(1.0, scale).sample_with(substream(5), 1000)
        u = substream(5).uniform(-np.pi / 2.0, np.pi / 2.0, 1000)
        assert np.array_equal(x, scale * np.tan(u))

    @pytest.mark.parametrize("scale", [1.0, 2.5])
    @pytest.mark.parametrize("alpha", [0.3, 0.6, 1.0, 1.5, 2.0])
    def test_characteristic_function(self, alpha, scale):
        # a symmetric stable law has E cos(tX) = exp(-|scale t|**alpha)
        count = 2 * 10**5
        x = tr.make_symmetric_stable(alpha, scale).sample(count, 11)
        for t in (0.5, 1.0, 2.0):
            c = np.cos(t * x)
            z = (c.mean() - math.exp(-abs(scale * t) ** alpha)) / (c.std() / math.sqrt(count))
            assert abs(z) < 4.5, (t, z)


class TestSampling:
    def test_determinism(self):
        fam = tr.make_pareto(1.0, 1.0)
        a = fam.sample(5, 99)
        b = fam.sample(5, 99)
        assert np.array_equal(a, b)

    def test_pareto_support(self):
        x = tr.make_pareto(1.5, 1.0).sample(10**5, 4)
        assert (x >= 1.0).all()

    def test_empirical_cdf_matches(self):
        fam = tr.make_half_cauchy(1.0)
        x = np.abs(fam.sample(10**5, 8))
        emp = (x <= 1.0).mean()
        assert emp == pytest.approx(0.5, abs=0.01)

    @pytest.mark.parametrize(
        "fam",
        [tr.make_pareto(1.5, 2.0), tr.make_half_cauchy(2.0), tr.make_exponential(0.5)],
        ids=lambda f: f.name,
    )
    def test_sample_is_quantile_of_uniforms(self, fam):
        # the sampler calls the form on the array of uniforms; the accessor takes one float
        got = fam.sample(1000, 31)
        want = fam.scale * fam._quantile(substream(31).random(1000))
        assert got.tobytes() == want.tobytes()

    def test_quantile_only_family_samples(self):
        fam = tr.TailFamily(name="quantile_only", _quantile=lambda u: 2.0 * u)
        with pytest.raises(CapabilityError):
            fam.cdf(1.0)
        x = fam.sample(100, 5)
        assert np.array_equal(x, 2.0 * substream(5).random(100))

    @pytest.mark.parametrize("scale", [1.0, 3.0])
    def test_unit_scale_returns_the_draw_itself(self, scale):
        # at scale 1 no copy is made; otherwise the draw is scaled into a new array
        drawn = np.arange(1.0, 6.0)
        fam = tr.TailFamily(name="fixed", scale=scale, _sampler=lambda rng, size: drawn)
        got = fam.sample(5, 1)
        assert (got is drawn) == (scale == 1.0)
        assert got.tobytes() == (scale * np.arange(1.0, 6.0)).tobytes()

    def test_missing_sampler_capability(self):
        fam = tr.TailFamily(name="cdf_only", _cdf=lambda x: x)
        with pytest.raises(CapabilityError):
            fam.sample(10, 1)

    def test_bad_count(self):
        with pytest.raises(ParameterDomainError):
            tr.make_pareto(1, 1).sample(0, 1)


@pytest.mark.parametrize("fam", FULL_FAMILIES, ids=spec_id)
class TestFullCapabilityInvariants:
    def test_cdf_shape(self, fam):
        grid = pointwise(fam.quantile, np.linspace(0.001, 0.999, 50))
        vals = pointwise(fam.cdf, grid)
        assert (np.diff(vals) >= 0).all()
        assert fam.cdf(fam.support_lo) <= 1e-15
        assert float(fam.cdf(fam.quantile(0.999999))) > 0.99999

    def test_density_integrates_to_cdf(self, fam):
        # log substitution keeps the quadrature honest when the 99.99%
        # quantile is many decades above the support edge
        b = float(fam.quantile(0.9999))
        lo = max(fam.support_lo, b * 1e-12)
        head, _ = integrate.quad(
            lambda x: float(fam.pdf(x)), fam.support_lo, lo, limit=200
        )
        tail, _ = integrate.quad(
            lambda t: float(fam.pdf(np.exp(t))) * np.exp(t),
            np.log(lo),
            np.log(b),
            limit=400,
        )
        assert head + tail == pytest.approx(float(fam.cdf(b)), abs=1e-6)

    @pytest.mark.parametrize("v", [1e-150, 1e-12, 0.3, 0.999])
    def test_upper_quantile_is_scipy_isf(self, fam, v):
        # the x with 1 - F(x) = v, also where 1 - v rounds to 1
        law = {"pareto": lambda p: stats.pareto(p["alpha"], scale=p["xm"]),
               "half_cauchy": lambda p: stats.halfcauchy(scale=p["scale"]),
               "exponential": lambda p: stats.expon(scale=1.0 / p["rate"]),
               "half_normal": lambda p: stats.halfnorm(scale=p["sigma"])}[fam.name](fam.params)
        assert float(fam.quantile(v, upper=True)) == pytest.approx(law.isf(v), rel=1e-12)

    def test_quantile_roundtrip(self, fam):
        us = np.linspace(0.01, 0.99, 33)
        back = pointwise(fam.cdf, pointwise(fam.quantile, us))
        assert np.abs(back - us).max() < 1e-10

    def test_cdf_derivative_is_pdf(self, fam):
        xs = pointwise(fam.quantile, np.linspace(0.1, 0.9, 9))
        h = 1e-6
        fd = (pointwise(fam.cdf, xs + h) - pointwise(fam.cdf, xs - h)) / (2.0 * h)
        assert np.allclose(fd, pointwise(fam.pdf, xs), rtol=1e-5, atol=1e-8)

    def test_forms_at_zero_are_floats(self, fam):
        # Pareto's support starts at xm, so 0.0 is below it
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            values = [fam.pdf(0.0), fam.cdf(0.0)]
        for v in values:
            assert isinstance(v, float) and math.isfinite(v)

    def test_mean_is_the_integral_of_the_quantile(self, fam):
        if fam.mean is None:
            # only a tail index of at most 1 makes the mean infinite
            assert fam.tail_index is not None and fam.tail_index <= 1.0
            return
        mean, _ = integrate.quad(lambda u: float(fam.quantile(u)), 0.0, 1.0, limit=200)
        # mean is the standard law's, the quantile the data's
        assert fam.scale * fam.mean == pytest.approx(mean, rel=1e-8)

    def test_kolmogorov_distance(self, fam):
        x = np.sort(np.abs(fam.sample(10**5, 2024)))
        theo = pointwise(fam.cdf, x)
        n = x.size
        emp_hi = np.arange(1, n + 1) / n
        emp_lo = np.arange(0, n) / n
        ks = max(np.abs(emp_hi - theo).max(), np.abs(emp_lo - theo).max())
        assert ks < 0.01


class TestSpecStrings:
    def test_roundtrip(self):
        fam = tr.parse_family_spec("pareto:alpha=1.5,xm=1")
        assert fam.name == "pareto"
        assert fam.params == {"alpha": 1.5, "xm": 1.0}

    @pytest.mark.parametrize(
        "fam",
        [
            tr.make_pareto(1.2345678, 1 / 3),
            tr.make_half_cauchy(0.1),
            tr.make_exponential(2.0 / 7.0),
            tr.make_half_normal(1e-7 / 3),
            tr.make_symmetric_stable(0.6000000000000001, 123456.789012345),
        ],
        ids=lambda f: f.name,
    )
    def test_spec_string_roundtrip(self, fam):
        spec = fam.name + ":" + ",".join(f"{k}={v!r}" for k, v in fam.params.items())
        back = tr.parse_family_spec(spec)
        assert back.name == fam.name and back.params == fam.params

    def test_case_insensitive(self):
        fam = tr.parse_family_spec("Half-Cauchy:SCALE=2")
        assert fam.name == "half_cauchy"
        assert fam.params["scale"] == 2.0

    def test_stable(self):
        fam = tr.parse_family_spec("stable:alpha=0.6,scale=1")
        assert fam.tail_index == 0.6

    def test_unknown_family(self):
        # names without the underscore are unknown like any other
        for spec in ("weibull:k=1", "halfcauchy:scale=1", "halfnormal:sigma=1"):
            with pytest.raises(ParameterDomainError) as exc:
                tr.parse_family_spec(spec)
            assert str(exc.value).endswith(
                "(known: exponential, half_cauchy, half_normal, pareto, stable)"
            )

    def test_unknown_key(self):
        with pytest.raises(ParameterDomainError):
            tr.parse_family_spec("pareto:alpha=1,beta=2")

    def test_missing_required(self):
        with pytest.raises(ParameterDomainError):
            tr.parse_family_spec("stable:scale=1")

    def test_malformed(self):
        with pytest.raises(ParameterDomainError):
            tr.parse_family_spec("pareto:alpha")


# family -> (keys without a default, keys with one)
SPEC_KEYS = {
    "pareto": (["alpha"], ["xm"]),
    "half_cauchy": ([], ["scale"]),
    "exponential": ([], ["rate"]),
    "half_normal": ([], ["sigma"]),
    "stable": (["alpha"], ["scale"]),
}


def test_every_family_has_its_spec_keys():
    assert sorted(tr.families._MAKERS) == sorted(SPEC_KEYS)


def half_spec(name, keys):
    # a spec giving each of `keys` the value 0.5, valid for every family
    return name + ":" + ",".join(f"{k}=0.5" for k in keys)


@pytest.mark.parametrize("name", sorted(SPEC_KEYS))
class TestSpecKeys:
    def test_every_key_accepted(self, name):
        keys = SPEC_KEYS[name][0] + SPEC_KEYS[name][1]
        fam = tr.parse_family_spec(half_spec(name, keys))
        assert fam.name == name and fam.params == dict.fromkeys(keys, 0.5)

    def test_defaults_fill_the_keys_left_out(self, name):
        required, optional = SPEC_KEYS[name]
        fam = tr.parse_family_spec(half_spec(name, required))
        assert fam.params == tr.families._MAKERS[name](*[0.5] * len(required)).params
        assert set(fam.params) == set(required + optional)

    def test_keys_are_the_makers_parameters(self, name):
        # parse_family_spec reads them off the maker's code object, not through inspect
        parameters = inspect.signature(tr.families._MAKERS[name]).parameters
        required, optional = SPEC_KEYS[name]
        assert list(parameters) == required + optional
        assert [k for k, p in parameters.items() if p.default is p.empty] == required

    def test_extra_key(self, name):
        with pytest.raises(ParameterDomainError) as exc:
            tr.parse_family_spec(half_spec(name, SPEC_KEYS[name][0] + ["beta"]))
        assert str(exc.value) == f"unknown parameter 'beta' for family {name!r}"

    def test_repeated_key(self, name):
        key = (SPEC_KEYS[name][0] + SPEC_KEYS[name][1])[0]
        spec = half_spec(name, [key, key])
        with pytest.raises(ParameterDomainError) as exc:
            tr.parse_family_spec(spec)
        assert str(exc.value) == f"parameter {key!r} given twice in {spec!r}"

    def test_missing_required_key(self, name):
        required, optional = SPEC_KEYS[name]
        for missing in required:
            spec = half_spec(name, [k for k in required + optional if k != missing])
            with pytest.raises(ParameterDomainError) as exc:
                tr.parse_family_spec(spec)
            assert str(exc.value) == (
                f"family {name!r} is missing a required parameter in {spec!r}"
            )
