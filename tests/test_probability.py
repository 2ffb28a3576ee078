"""The outlier-event probability along its independent computation routes."""

import contextlib
import io
import json
import math
from fractions import Fraction
from functools import cache

import numpy as np
import pytest
from scipy import integrate

import tailratio as tr
from tailratio import cli
from tailratio.errors import (
    AccuracyError,
    CapabilityError,
    ParameterDomainError,
    SingularityError,
)
from tailratio.families import TailFamily
from tailratio.rng import substream


def spec_id(fam):
    # the family as a spec string, name:key=value,...
    return fam.name + ":" + ",".join(f"{k}={v:.17g}" for k, v in fam.params.items())


def exponential_closed_form(n, k):
    """The exponential's P at kappa = 1/k, k! n! / (n+k-1)!, for an integer k."""
    return float(Fraction(math.factorial(k), math.prod(range(n + 1, n + k))))


def growing_family(a):
    """Not a distribution: p(x) = exp(a*x) with the exponential's upper quantile.

    At kappa = 0.01, x = -ln(v) makes the integrand p(100*x)/(0.01*p(x))
    = 100 * v**(-99*a), with v = 1 - w**(1/n) about (1 - w)/n near w = 1:
    it diverges at a = 1/99, and is integrable at a = 0.01 with a share of
    its mass beyond the outermost node.
    """
    return TailFamily(name="growing", _pdf=lambda x: np.exp(a * x),
                      _upper_quantile=lambda v: -np.log(v))


# References for exact_probability's grid, mpmath 1.3 at 40 digits: for the
# exponential Gamma(n+1) Gamma(1+1/kappa) / Gamma(n+1/kappa); for half-Cauchy and
# half-normal the quadrature of n p(y) F(kappa y)**(n-1) over (0, inf),
# around the integrand's peak, which a second quadrature, after the
# substitution w = F(kappa y)**n, matched to 19 digits or more (half-normal
# at n = 10**12, kappa = 0.5 only once the first had breakpoints 1/40 apart).
GRID_REFERENCES = {
    **{("exponential", n, 0.9): v for n, v in [
        (10, "0.80975504316752125331"), (10**3, "0.48835028111073604929"),
        (10**6, "0.2266860968645362359"), (10**9, "0.10521837208263437148"),
        (10**12, "0.048838042097978704203")]},
    **{("exponential", n, 0.99): v for n, v in [
        (10, "0.98073150807424401674"), (10**3, "0.93662056497634678073"),
        (10**6, "0.87349992460894031975"), (10**9, "0.81462895734422753441"),
        (10**12, "0.75972569209108623404")]},
    **{("half_cauchy", n, 0.1): v for n, v in [
        (10, "0.10418635399236308255"), (10**3, "0.10000048709259896064"),
        (10**6, "0.10000000000048854395"), (10**9, "0.10000000000000000049"),
        (10**12, "0.1000000000000000000000004885")]},
    **{("half_cauchy", n, 0.5): v for n, v in [
        (10, "0.51504373175497977549"), (10**3, "0.50000184503470273734"),
        (10**6, "0.50000000000185054527"), (10**9, "0.50000000000000000185"),
        (10**12, "0.5000000000000000000000018506")]},
    **{("half_cauchy", n, 0.9): v for n, v in [
        (10, "0.90622993562032229604"), (10**3, "0.90000084132197134299"),
        (10**6, "0.90000000000084384864"), (10**9, "0.90000000000000000084"),
        (10**12, "0.9000000000000000000000008439")]},
    **{("half_cauchy", n, 0.99): v for n, v in [
        (10, "0.99070013340897579348"), (10**3, "0.99000009692866235322"),
        (10**6, "0.99000000000009722025"), (10**9, "0.9900000000000000001"),
        (10**12, "0.9900000000000000000000000972")]},
    **{("half_normal", n, 0.1): v for n, v in [
        (10, "3.4676483881276406638e-7"), (10**3, "2.0679444043981939699e-100"),
        (10**6, "4.4074537030671300494e-367"), (10**9, "1.0632453272019956475e-651"),
        (10**12, "8.4217665587414756168e-941")]},
    **{("half_normal", n, 0.5): v for n, v in [
        (10, "0.061502256149558598887"), (10**3, "7.7892395784012385697e-7"),
        (10**6, "2.6763276058487603439e-15"), (10**9, "5.275986851999472083e-24"),
        (10**12, "8.4351357232631844779e-33")]},
    **{("half_normal", n, 0.9): v for n, v in [
        (10, "0.73141826389001800766"), (10**3, "0.28472571172087575881"),
        (10**6, "0.06118708025250386778"), (10**9, "0.012707212601546373697"),
        (10**12, "0.0026020101837822021995")]},
    **{("half_normal", n, 0.99): v for n, v in [
        (10, "0.97210099890693141415"), (10**3, "0.89528867312780907451"),
        (10**6, "0.78357730847658827864"), (10**9, "0.6838591143409573909"),
        (10**12, "0.59612126181645093315")]},
}


class TestLimitProbability:
    def test_half(self):
        assert tr.limit_probability(0.5, 1.0) == 0.5

    def test_kappa_one(self):
        assert tr.limit_probability(1.0, 3.7) == 1.0

    def test_value(self):
        assert tr.limit_probability(0.5, 1.5) == pytest.approx(
            0.3535533906, abs=1e-9
        )

    def test_monotone_in_kappa(self):
        kappas = np.linspace(0.05, 1.0, 20)
        vals = [tr.limit_probability(k, 1.3) for k in kappas]
        assert (np.diff(vals) > 0).all()

    def test_decreasing_in_alpha(self):
        alphas = np.linspace(0.2, 3.0, 15)
        vals = [tr.limit_probability(0.4, a) for a in alphas]
        assert (np.diff(vals) < 0).all()

    @pytest.mark.parametrize("kappa,alpha", [(0.0, 1.0), (1.5, 1.0), (0.5, 0.0)])
    def test_domain(self, kappa, alpha):
        with pytest.raises(ParameterDomainError):
            tr.limit_probability(kappa, alpha)


class TestExactProbability:
    @pytest.mark.parametrize("n", [2, 10, 100, 1000])
    def test_pareto_identity(self, n):
        # the finite-n integral collapses to kappa**alpha for Pareto at any n
        r = tr.exact_probability(tr.make_pareto(1.5, 1.0), n, 0.5)
        assert abs(r.value - 0.5**1.5) < 1e-8

    @pytest.mark.parametrize("fam, value", [
        (tr.make_pareto(1.5), 0.5 ** 1.5), (tr.make_half_cauchy(), 0.7263329596512129),
        (tr.make_exponential(), 0.6666666666666667), (tr.make_half_normal(), 0.590334470601733),
    ], ids=["pareto", "half_cauchy", "exponential", "half_normal"])
    def test_value_where_the_outermost_nodes_reach_the_full_end(self, fam, value):
        # at n = 2, 35 nodes ask quantile(1.0, upper=True), the support edge
        assert tr.exact_probability(fam, 2, 0.5).value == value

    def test_pareto_alpha_one_small_n(self):
        r = tr.exact_probability(tr.make_pareto(1.0, 1.0), 2, 0.5)
        assert abs(r.value - 0.5) < 1e-8

    def test_light_tail_vanishes(self):
        r = tr.exact_probability(tr.make_exponential(1.0), 10**4, 0.5)
        assert r.value < 0.01

    def test_monotone_in_kappa(self):
        fam = tr.make_half_cauchy(1.0)
        vals = [
            tr.exact_probability(fam, 20, k).value
            for k in np.linspace(0.1, 0.9, 9)
        ]
        assert all(0.0 <= v <= 1.0 for v in vals)
        assert (np.diff(vals) > 0).all()

    def test_half_cauchy_convergence(self):
        errs = [
            abs(tr.exact_probability(tr.make_half_cauchy(1.0), n, 0.5).value - 0.5)
            for n in (10, 100, 1000, 10000)
        ]
        assert (np.diff(errs) < 0).all()
        assert errs[-1] < errs[0] / 10.0

    def test_no_underflow_at_huge_n(self):
        r = tr.exact_probability(tr.make_pareto(1.5, 1.0), 10**6, 0.5)
        assert np.isfinite(r.value) and abs(r.value - 0.5**1.5) < 1e-8
        r = tr.exact_probability(tr.make_half_cauchy(1.0), 10**6, 0.5)
        assert np.isfinite(r.value) and 0.0 < r.value < 1.0

    def test_capability_error(self):
        with pytest.raises(CapabilityError):
            tr.exact_probability(tr.make_symmetric_stable(0.6, 1.0), 10, 0.5)
        # the quadrature needs a quantile; a cdf alone is not enough
        base = tr.make_half_cauchy(1.0)
        fam = TailFamily(name="half_cauchy_noq", _pdf=base._pdf, _cdf=base._cdf)
        with pytest.raises(CapabilityError, match="no quantile"):
            tr.exact_probability(fam, 10, 0.5)

    def test_domain_errors(self):
        fam = tr.make_pareto(1.0, 1.0)
        with pytest.raises(ParameterDomainError):
            tr.exact_probability(fam, 1, 0.5)
        with pytest.raises(ParameterDomainError):
            tr.exact_probability(fam, 10, 1.0)

    @pytest.mark.parametrize("n", [2, 10, 100, 1000, 10**6, 10**9, 10**12])
    @pytest.mark.parametrize("k", [2, 3, 10])
    def test_exponential_closed_form(self, n, k):
        # at kappa = 1/k the exponential's P is k! n! / (n+k-1)!, which falls
        # to 3.6e-102 at n = 10**12, k = 10: no absolute tolerance may hide it
        r = tr.exact_probability(tr.make_exponential(1.0), n, 1.0 / k)
        assert r.value == pytest.approx(exponential_closed_form(n, k), rel=1e-12, abs=0.0)

    def test_small_half_normal_value(self):
        # mpmath 1.3's quad of n F(kappa y)**(n-1) p(y) over (0, inf) at 30 digits
        r = tr.exact_probability(tr.make_half_normal(1.0), 10**6, 0.5)
        assert r.value == pytest.approx(2.67632760584876e-15, rel=1e-8, abs=0.0)

    def test_accuracy_error_carries_estimate(self):
        # a tolerance out of reach must fail loudly, not silently degrade
        with pytest.raises(AccuracyError) as exc:
            tr.exact_probability(growing_family(1.0 / 99.0), 2, 0.01)
        assert exc.value.best_estimate is not None
        assert np.isfinite(exc.value.best_estimate)
        assert exc.value.error_estimate > 0.0

    def test_accuracy_error_names_the_levels(self):
        # the ratio is 100 * v**-0.99: integrable, but 0.2 % of it lies beyond the last node
        with pytest.raises(AccuracyError) as exc:
            tr.exact_probability(growing_family(0.01), 2, 0.01)
        message = str(exc.value)
        assert message.startswith("quadrature levels 7 and 8 differ by ")
        assert "the outermost nodes add 2.227e+02, against a tolerance of 1.977e-04" in message
        assert message.endswith(f" (best estimate {exc.value.best_estimate!r})")

    @pytest.mark.parametrize("kappa", [0.1, 0.5, 0.9, 0.99])
    @pytest.mark.parametrize("n", [10, 10**3, 10**6, 10**9, 10**12])
    @pytest.mark.parametrize("spec", ["pareto:alpha=1.5", "pareto:alpha=0.3", "exponential:rate=1",
                                      "half_cauchy:scale=1", "half_normal:sigma=1"])
    def test_grid_against_references(self, spec, n, kappa):
        # a reference below 1e-300 (half-normal at kappa = 0.1, n >= 10**6) reads 0.0
        fam = tr.parse_family_spec(spec)
        r = tr.exact_probability(fam, n, kappa)
        if fam.name == "pareto":
            reference = kappa**fam.tail_index
        elif fam.name == "exponential" and kappa in (0.1, 0.5):
            reference = exponential_closed_form(n, round(1.0 / kappa))
        else:
            reference = float(GRID_REFERENCES[fam.name, n, kappa])
        if reference < 1e-300:
            assert r.value == 0.0
        else:
            assert r.value == pytest.approx(reference, rel=1e-12, abs=0.0)

    @pytest.mark.parametrize(
        "fam, n, kappa, reference",
        [
            (tr.make_pareto(0.5, 2.0), 2, 0.1, 0.1**0.5),
            (tr.make_pareto(1.5), 10**9, 0.9, 0.9**1.5),
            (tr.make_pareto(3.0, 0.5), 3, 0.1, 0.1**3),
            (tr.make_half_normal(1.0), 1000, 0.5, GRID_REFERENCES["half_normal", 1000, 0.5]),
            (tr.make_half_normal(1.0), 10**6, 0.99, GRID_REFERENCES["half_normal", 10**6, 0.99]),
        ],
        ids=lambda v: spec_id(v) if isinstance(v, TailFamily) else None,
    )
    def test_references(self, fam, n, kappa, reference):
        # Pareto at any xm sits at kappa**alpha; the error estimate covers the distance
        r = tr.exact_probability(fam, n, kappa)
        assert abs(r.value - float(reference)) <= r.error_estimate
        assert r.value == pytest.approx(float(reference), rel=1e-12, abs=0.0)


# each family by its unit s: Pareto's xm, half-Cauchy's and stable's scale, 1/rate, sigma
UNIT_MAKERS = {
    "pareto": lambda s: tr.make_pareto(1.5, s),
    "half_cauchy": tr.make_half_cauchy,
    "exponential": lambda s: tr.make_exponential(1.0 / s),
    "half_normal": tr.make_half_normal,
    "stable": lambda s: tr.make_symmetric_stable(0.6, s),
}
# every unit but 1, against which each is compared
UNITS = [1e-320, 1e-300, 1e-100, 1e-9, 3.0, 1e9, 1e100, 1e300, 1e308]
CLOSED_FORMS = sorted(set(UNIT_MAKERS) - {"stable"})


def mc_route(family, n, kappa):
    return tr.mc_probability(family, n, kappa, 2000, seed=1)


# route: (function, the families it takes, its n); the oracle stops at n = 8
UNIT_ROUTES = {
    "mc": (mc_route, sorted(UNIT_MAKERS), (5, 50)),
    "exact": (tr.exact_probability, CLOSED_FORMS, (5, 50)),
    "oracle": (tr.joint_oracle_probability, CLOSED_FORMS, (5, 8)),
}


@cache
def unit_record(route, name, n, unit):
    function = UNIT_ROUTES[route][0]
    r = function(UNIT_MAKERS[name](unit), n, 0.5)
    return r.value, r.error_estimate, r.ci


@pytest.mark.parametrize("route, name, n, unit", [
    (route, name, n, unit)
    for route, (_, names, ns) in UNIT_ROUTES.items()
    for name in names
    for n in ns
    for unit in UNITS
    # a rate of 1/1e-320 overflows: no exponential has that unit
    if not (name == "exponential" and unit == 1e-320)
])
def test_no_route_sees_the_unit(route, name, n, unit):
    # the event {second <= kappa * largest} does not depend on the unit, so
    # Monte Carlo and both quadrature routes give the unit-1 record bit for
    # bit, at the ends of the floats included
    assert unit_record(route, name, n, unit) == unit_record(route, name, n, 1.0)


def strict_float(text):
    raise ValueError(f"not a JSON number: {text}")


@cache
def command_output(command, name, unit):
    """Exit code and stdout of `command` on UNIT_MAKERS[name](unit), run in process."""
    argv = {"check-conditions": ["check-conditions"],
            "lln-demo": ["lln-demo", "--ns", "10,100,1000", "--replications", "5", "--seed", "1",
                         "--threads", "1"]}[command]
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main([*argv, "--dist", spec_id(UNIT_MAKERS[name](unit))])
    return code, out.getvalue()


UNIT_GRID = [(name, unit) for name in sorted(UNIT_MAKERS) for unit in UNITS
             if not (name == "exponential" and unit == 1e-320)]


@pytest.mark.parametrize("name, unit", UNIT_GRID)
def test_check_conditions_does_not_see_the_unit(name, unit):
    # the probe runs on the standard law: at the default probe range, the
    # report's three fields are the unit-1 fields bit for bit
    code, out = command_output("check-conditions", name, unit)
    if name == "stable":  # no density
        assert code == 3
        return
    fields = ("boundary_ratio_limit", "zero_limit_ok", "integrand_integral")
    record, base = (json.loads(command_output("check-conditions", name, u)[1],
                               parse_constant=strict_float) for u in (unit, 1.0))
    assert code == 0
    assert [record[k] for k in fields] == [base[k] for k in fields]


def scaling_table(out):
    """The medians and the slope of an lln-demo scaling table."""
    lines = out.splitlines()
    return [float(line.split(",")[1]) for line in lines[1:-2]], float(lines[-1].split(",")[0])


@pytest.mark.parametrize("name, unit", UNIT_GRID)
def test_lln_demo_does_not_see_the_unit(name, unit):
    # the running means are summed in the standard law and the slope fitted
    # there, so the slope is the unit-1 slope and each median the family's
    # scale (1/rate, not quite `unit`) times the unit-1 median; where that
    # product is not a float, the command refuses
    code, out = command_output("lln-demo", name, unit)
    base_medians, base_slope = scaling_table(command_output("lln-demo", name, 1.0)[1])
    products = [UNIT_MAKERS[name](unit).scale * m for m in base_medians]
    if not all(map(math.isfinite, products)):
        assert (code, out) == (5, "")
        return
    assert code == 0
    assert scaling_table(out) == (products, base_slope)


class TestMonteCarlo:
    def test_pareto_within_band(self):
        fam = tr.make_pareto(1.5, 1.0)
        r = tr.mc_probability(fam, 100, 0.5, 10**4, seed=42)
        p = 0.5**1.5
        assert abs(r.value - p) < 3.0 * np.sqrt(p * (1.0 - p) / 10**4)
        assert r.ci[0] <= r.value <= r.ci[1]

    def test_deterministic(self):
        fam = tr.make_half_cauchy(1.0)
        a = tr.mc_probability(fam, 10, 0.5, 500, seed=7)
        b = tr.mc_probability(fam, 10, 0.5, 500, seed=7)
        assert a.value == b.value and a.ci == b.ci

    def test_scale_invariance_of_event(self):
        # scaling the family parameter scales every sample, leaving the ratio
        # event untouched: identical p_hat for identical seeds
        a = tr.mc_probability(tr.make_half_cauchy(1.0), 2, 0.5, 2000, seed=5)
        b = tr.mc_probability(tr.make_half_cauchy(10.0), 2, 0.5, 2000, seed=5)
        assert a.value == b.value

    def test_agrees_with_quadrature(self):
        fam = tr.make_half_cauchy(1.0)
        exact = tr.exact_probability(fam, 50, 0.5).value
        r = tr.mc_probability(fam, 50, 0.5, 10**4, seed=99)
        assert abs(r.value - exact) < 3.0 * max(r.error_estimate, 1e-4)

    @pytest.mark.parametrize("n, trials", [(2, 4097), (50, 163), (50, 164), (50, 1025),
                                           (9000, 3)])
    def test_counts_every_trial_once(self, n, trials):
        # events are counted a block of 2**13 // n trials at a time; the count
        # must equal the trial-by-trial one, whatever block the last trial ends
        fam = tr.make_half_cauchy(1.0)
        hits = sum(tr.is_outlier(fam.sample_with(substream(3, i), n), 0.5).is_outlier
                   for i in range(trials))
        assert tr.mc_probability(fam, n, 0.5, trials, seed=3).value == hits / trials

    def test_missing_sampler(self):
        fam = TailFamily(name="nosampler", _pdf=lambda x: x)
        with pytest.raises(CapabilityError):
            tr.mc_probability(fam, 5, 0.5, 10, seed=1)


class TestJointOracle:
    def test_pareto_n2(self):
        r = tr.joint_oracle_probability(tr.make_pareto(1.0, 1.0), 2, 0.5)
        assert abs(r.value - 0.5) < 1e-6

    def test_pareto_n3(self):
        r = tr.joint_oracle_probability(tr.make_pareto(2.0, 1.0), 3, 0.5)
        assert abs(r.value - 0.25) < 1e-6

    @pytest.mark.parametrize("n", range(2, 9))
    @pytest.mark.parametrize("kappa", [0.25, 0.5, 0.75])
    def test_agrees_with_exact_half_cauchy(self, n, kappa):
        fam = tr.make_half_cauchy(1.0)
        oracle = tr.joint_oracle_probability(fam, n, kappa)
        exact = tr.exact_probability(fam, n, kappa)
        tol = oracle.error_estimate + exact.error_estimate + 1e-8
        assert abs(oracle.value - exact.value) < tol

    @pytest.mark.parametrize("fam", [tr.make_pareto(1.5), tr.make_exponential(2.0),
                                     tr.make_half_normal(1.0)], ids=spec_id)
    @pytest.mark.parametrize("n", range(2, 9))
    @pytest.mark.parametrize("kappa", [0.25, 0.5, 0.75])
    def test_agrees_with_exact_other_families(self, fam, n, kappa):
        oracle = tr.joint_oracle_probability(fam, n, kappa)
        exact = tr.exact_probability(fam, n, kappa)
        assert abs(oracle.value - exact.value) <= oracle.error_estimate + exact.error_estimate

    @pytest.mark.parametrize("fam, n, kappa", [
        (tr.make_half_cauchy(1.0), 4, 0.5),
        (tr.make_pareto(1.5, 2.0), 3, 0.25),
        (tr.make_exponential(1.0), 5, 0.75),
        (tr.make_half_normal(2.0), 8, 0.5),
    ], ids=lambda v: spec_id(v) if isinstance(v, TailFamily) else None)
    def test_agrees_with_scipy_dblquad(self, fam, n, kappa):
        # the same joint density, integrated by scipy's nested QUADPACK over x in [lo, kappa*y]
        lo = fam.support_lo

        def joint(x, y):
            return n * (n - 1) * fam.cdf(x) ** (n - 2) * fam.pdf(x) * fam.pdf(y)

        ref, _ = integrate.dblquad(joint, lo / kappa, np.inf, lo, lambda y: kappa * y,
                                   epsabs=1e-13, epsrel=1e-11)
        r = tr.joint_oracle_probability(fam, n, kappa)
        assert r.value == pytest.approx(ref, rel=1e-9, abs=0.0)

    def test_pareto_starts_where_the_inner_integral_switches_on(self):
        # the outer integral starts at y = xm/kappa; below it the inner one is empty
        r = tr.joint_oracle_probability(tr.make_pareto(1.5), 3, 0.5)
        assert abs(r.value - 0.5**1.5) <= r.error_estimate
        assert r.value == pytest.approx(0.5**1.5, rel=1e-12, abs=0.0)

    def test_failed_integral_raises(self):
        # 0.2 % of Pareto(0.01)'s mass lies beyond y = 1e275, the outermost node
        with pytest.raises(AccuracyError) as exc:
            tr.joint_oracle_probability(tr.make_pareto(0.01), 8, 0.5)
        assert abs(exc.value.best_estimate - 0.5**0.01) <= exc.value.error_estimate
        assert str(exc.value).startswith("quadrature levels 7 and 8 differ by ")

    @pytest.mark.parametrize("n", [1, 9, 100])
    def test_n_range(self, n):
        with pytest.raises(ParameterDomainError):
            tr.joint_oracle_probability(tr.make_pareto(1.0, 1.0), n, 0.5)


class TestBoundaryRatio:
    def test_pareto_identity(self):
        fam = tr.make_pareto(1.3, 1.0)
        for x in (3.0, 10.0, 250.0):
            assert tr.boundary_ratio(fam, 0.5, x) == pytest.approx(
                0.5**1.3, rel=1e-12
            )

    def test_exponential(self):
        got = tr.boundary_ratio(tr.make_exponential(1.0), 0.5, 10.0)
        assert got == pytest.approx(2.0 * np.exp(-5.0), rel=1e-12)

    def test_half_cauchy_tends_to_kappa(self):
        got = tr.boundary_ratio(tr.make_half_cauchy(1.0), 0.5, 1e3)
        assert abs(got - 0.5) < 1e-3

    def test_singularity(self):
        with pytest.raises(SingularityError):
            tr.boundary_ratio(tr.make_pareto(1.0, 1.0), 0.5, 1.5)

    def test_singularity_below_the_support(self):
        # the density is 0 at kappa*x = -1, below half-Cauchy's support
        with pytest.raises(SingularityError):
            tr.boundary_ratio(tr.make_half_cauchy(), 0.5, -2.0)


class TestConditionReport:
    def test_pareto_integrand_cancels(self):
        rep = tr.check_theorem_conditions(tr.make_pareto(1.5, 1.0), 0.5, 100)
        assert rep.integrand_integral < 1e-10
        assert rep.zero_limit_ok
        assert rep.boundary_ratio_limit == pytest.approx(0.5**1.5, abs=1e-9)

    def test_exponential_boundary_ratio_vanishes(self):
        rep = tr.check_theorem_conditions(
            tr.make_exponential(1.0), 0.5, 100, probe_range=(0.01, 20.0)
        )
        assert rep.boundary_ratio_limit < 1e-3
        assert rep.zero_limit_ok

    def test_half_cauchy(self):
        rep = tr.check_theorem_conditions(
            tr.make_half_cauchy(1.0), 0.5, 1000, probe_range=(0.01, 500.0)
        )
        assert rep.boundary_ratio_limit == pytest.approx(0.5, abs=2e-3)
        assert np.isfinite(rep.integrand_integral)

    # r(x) = p(x)/(kappa*p(kappa*x)) at kappa = 0.5 is monotone for each, so the
    # integral of |g| = |r'| over (lo, hi) is |r(lo) - r(hi)| at any grid size
    @pytest.mark.parametrize("grid_points", [2, 401])
    @pytest.mark.parametrize("fam, lo, hi, r", [
        # 1.4998440150225
        (tr.make_half_cauchy(1.0), 0.01, 500.0, lambda x: (2.0 + x * x / 2.0) / (1.0 + x * x)),
        # 2(e**-0.005 - e**-10) = 1.98993415852584
        (tr.make_exponential(1.0), 0.01, 20.0, lambda x: 2.0 * math.exp(-x / 2.0)),
        # 2(e**(-3/8 * 1e-4) - e**(-3/8 * 50.01**2)) = 1.99992500140623
        (tr.make_half_normal(1.0), 0.01, 50.01, lambda x: 2.0 * math.exp(-0.375 * x * x)),
    ], ids=["half_cauchy", "exponential", "half_normal"])
    def test_integrand_integral_is_the_total_variation_of_r(self, fam, lo, hi, r, grid_points):
        rep = tr.check_theorem_conditions(
            fam, 0.5, 100, probe_range=(lo, hi), grid_points=grid_points
        )
        assert rep.integrand_integral == pytest.approx(abs(r(lo) - r(hi)), rel=1e-12)

    # Pareto's grid starts at 2, where kappa*x reaches the support; the half-normal
    # p(x) underflows to 0 beyond x = 38.6, where r is 0
    @pytest.mark.parametrize("fam, lo, hi, grid_points", [
        (tr.make_pareto(1.5, 1.0), 1.01, 51.0, 401),
        (tr.make_half_cauchy(1.0), 0.01, 500.0, 10_001),
        (tr.make_exponential(1.0), 0.01, 20.0, 3),
        (tr.make_half_normal(1.0), 0.01, 70.0, 1001),
    ], ids=["pareto", "half_cauchy", "exponential", "half_normal"])
    def test_integrand_integral_is_the_fsum_on_numpys_grid(self, fam, lo, hi, grid_points):
        # the probe makes np.linspace's points one at a time and sums them by math.fsum
        rep = tr.check_theorem_conditions(
            fam, 0.5, 100, probe_range=(lo, hi), grid_points=grid_points
        )
        xs = np.linspace(max(lo, 2.0 * fam.support_lo or lo), hi, grid_points)
        p_x, p_kx = (np.array([fam.pdf(x) for x in grid]) for grid in (xs, 0.5 * xs))
        with np.errstate(divide="ignore", invalid="ignore"):
            r = p_x / (0.5 * p_kx)
        assert rep.integrand_integral == math.fsum(np.abs(np.diff(r[np.isfinite(r)])))

    def test_grid_is_made_a_point_at_a_time(self):
        # the probe holds no grid: its peak does not grow with the grid, where one
        # float a point, or a grid held whole with its densities, takes megabytes
        import tracemalloc

        fam = tr.make_half_cauchy(1.0)
        tr.check_theorem_conditions(fam, 0.5, 100)  # caches and lazy imports
        tracemalloc.start()
        try:
            tr.check_theorem_conditions(fam, 0.5, 100, grid_points=200_000)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64 * 1024

    def test_capability(self):
        with pytest.raises(CapabilityError):
            tr.check_theorem_conditions(
                tr.make_symmetric_stable(0.6, 1.0), 0.5, 100
            )

    def test_default_range_is_in_the_family_unit(self):
        # (edge + scale/100, edge + 50*scale): at sigma = 1e-300 the probe
        # finds the density where the law has its mass, as at sigma = 1
        rep = tr.check_theorem_conditions(tr.make_half_normal(1e-300), 0.5, 100)
        unit = tr.check_theorem_conditions(tr.make_half_normal(1.0), 0.5, 100)
        assert "over [1e-302, 5e-299]" in rep.notes
        assert rep.boundary_ratio_limit == unit.boundary_ratio_limit == 0.0
        assert rep.zero_limit_ok
        assert rep.integrand_integral == pytest.approx(unit.integrand_integral, rel=1e-12)


class TestEq2ReductionOracle:
    def test_substitution_oracle_for_pareto(self):
        # brute-force check of the analytic reduction used as the Pareto
        # oracle: n * integral F^{n-1}(kappa y) p(y) dy == kappa**alpha,
        # computed here directly with no library quadrature helpers
        alpha, xm, kappa, n = 1.5, 1.0, 0.5, 6
        fam = tr.make_pareto(alpha, xm)

        def raw(y):
            return n * float(fam.cdf(kappa * y)) ** (n - 1) * float(fam.pdf(y))

        val, _ = integrate.quad(raw, xm / kappa, np.inf, limit=500)
        assert val == pytest.approx(kappa**alpha, abs=1e-9)

