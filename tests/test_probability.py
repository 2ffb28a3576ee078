"""The outlier-event probability along its independent computation routes."""

import numpy as np
import pytest
from scipy import integrate

import tailratio as tr
from tailratio.errors import (
    AccuracyError,
    CapabilityError,
    ParameterDomainError,
    SingularityError,
)
from tailratio.families import TailFamily


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

    def test_accuracy_error_carries_estimate(self):
        # an impossible tolerance must fail loudly, not silently degrade
        fam = tr.make_half_cauchy(1.0)
        with pytest.raises(AccuracyError) as exc:
            tr.exact_probability(fam, 50, 0.5, epsabs=1e-300, epsrel=1e-300)
        assert exc.value.best_estimate is not None


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
            tr.make_half_cauchy(1.0), 0.5, 1000, probe_range=(0.01, 500.0),
            grid_points=2001,
        )
        assert rep.boundary_ratio_limit == pytest.approx(0.5, abs=2e-3)
        assert np.isfinite(rep.integrand_integral)

    def test_capability(self):
        with pytest.raises(CapabilityError):
            tr.check_theorem_conditions(
                tr.make_symmetric_stable(0.6, 1.0), 0.5, 100
            )


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
