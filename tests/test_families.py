"""Distribution-family catalog: closed forms, samplers, spec strings."""

import numpy as np
import pytest
from scipy import integrate

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
        assert fam.cdf(0.5) == 0.0
        assert fam.pdf(0.5) == 0.0

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

    def test_sampler_only(self):
        fam = tr.make_symmetric_stable(0.6, 1.0)
        assert fam.has_sampler and not fam.has_cdf and not fam.has_pdf
        with pytest.raises(CapabilityError):
            fam.cdf(1.0)

    @pytest.mark.parametrize("alpha", [0.0, -0.5, 2.5])
    def test_bad_alpha(self, alpha):
        with pytest.raises(ParameterDomainError):
            tr.make_symmetric_stable(alpha, 1.0)


class TestSampling:
    def test_determinism(self):
        fam = tr.make_pareto(1.0, 1.0)
        a = tr.sample(fam, 5, 99)
        b = tr.sample(fam, 5, 99)
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
        [tr.make_pareto(1.5, 2.0), tr.make_exponential(0.5), tr.make_half_normal(2.0)],
        ids=lambda f: f.name,
    )
    def test_sample_is_quantile_of_uniforms(self, fam):
        got = fam.sample(1000, 31)
        want = fam.quantile(substream(31).random(1000))
        assert got.tobytes() == want.tobytes()

    def test_quantile_only_family_samples(self):
        fam = tr.TailFamily(name="quantile_only", _quantile=lambda u: 2.0 * u)
        assert fam.has_sampler and not fam.has_cdf
        x = fam.sample(100, 5)
        assert np.array_equal(x, 2.0 * substream(5).random(100))

    def test_missing_sampler_capability(self):
        fam = tr.TailFamily(name="cdf_only", _cdf=lambda x: x)
        with pytest.raises(CapabilityError):
            fam.sample(10, 1)

    def test_bad_count(self):
        with pytest.raises(ParameterDomainError):
            tr.make_pareto(1, 1).sample(0, 1)


@pytest.mark.parametrize("fam", FULL_FAMILIES, ids=lambda f: f.spec_string())
class TestFullCapabilityInvariants:
    def test_cdf_shape(self, fam):
        grid = fam.quantile(np.linspace(0.001, 0.999, 50))
        vals = fam.cdf(grid)
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

    def test_quantile_roundtrip(self, fam):
        us = np.linspace(0.01, 0.99, 33)
        back = fam.cdf(fam.quantile(us))
        assert np.abs(back - us).max() < 1e-10

    def test_cdf_derivative_is_pdf(self, fam):
        xs = fam.quantile(np.linspace(0.1, 0.9, 9))
        h = 1e-6
        fd = (fam.cdf(xs + h) - fam.cdf(xs - h)) / (2.0 * h)
        assert np.allclose(fd, fam.pdf(xs), rtol=1e-5, atol=1e-8)

    def test_pdf_derivative_matches(self, fam):
        xs = fam.quantile(np.linspace(0.1, 0.9, 9))
        h = 1e-6
        fd = (fam.pdf(xs + h) - fam.pdf(xs - h)) / (2.0 * h)
        assert np.allclose(fd, fam.pdf_derivative(xs), rtol=1e-4, atol=1e-7)

    def test_kolmogorov_distance(self, fam):
        x = np.sort(np.abs(fam.sample(10**5, 2024)))
        theo = np.asarray(fam.cdf(x))
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
        back = tr.parse_family_spec(fam.spec_string())
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
