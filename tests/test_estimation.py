"""Tail-index estimation from block frequencies."""

import math

import numpy as np
import pytest

import tailratio as tr
from tailratio.errors import DegenerateFrequencyError, ParameterDomainError
from tailratio.intervals import wilson_interval


class TestWilsonInterval:
    def test_contains_p_hat(self):
        lo, hi = wilson_interval(0.3, 100)
        assert 0.0 < lo < 0.3 < hi < 1.0

    def test_known_value(self):
        # oracle: direct evaluation of the score formula at z = 1.959964
        z = 1.9599639845400545
        p, n = 0.4, 50
        denom = 1.0 + z * z / n
        center = (p + z * z / (2 * n)) / denom
        half = z / denom * np.sqrt(p * (1 - p) / n + z * z / (4 * n * n))
        lo, hi = wilson_interval(p, n, 0.95)
        assert lo == pytest.approx(center - half, rel=1e-12)
        assert hi == pytest.approx(center + half, rel=1e-12)

    def test_stays_in_unit_interval(self):
        lo, hi = wilson_interval(0.0, 5)
        assert lo == 0.0 and 0.0 < hi < 1.0
        lo, hi = wilson_interval(1.0, 5)
        assert 0.0 < lo < 1.0 and hi == 1.0

    @pytest.mark.parametrize("p", [0.0, 0.3, 1.0])
    def test_ends_are_plain_floats(self, p):
        assert [type(end) for end in wilson_interval(p, 10)] == [float, float]

    def test_monte_carlo_error_and_interval_are_plain_floats(self):
        res = tr.mc_probability(tr.make_pareto(1.5), 5, 0.5, 20, seed=1)
        assert [type(v) for v in (res.value, res.error_estimate, *res.ci)] == [float] * 4

    def test_narrows_with_n(self):
        w1 = np.diff(wilson_interval(0.5, 10))[0]
        w2 = np.diff(wilson_interval(0.5, 1000))[0]
        assert w2 < w1


class TestFromFrequency:
    def test_simple(self):
        est = tr.estimate_alpha_from_frequency(0.5, 0.5, 100)
        assert est.alpha_hat == pytest.approx(1.0)

    def test_quarter(self):
        est = tr.estimate_alpha_from_frequency(0.25, 0.5, 100)
        assert est.alpha_hat == pytest.approx(2.0)

    @pytest.mark.parametrize("alpha", [0.3, 0.6, 1.0, 1.5, 1.9])
    @pytest.mark.parametrize("kappa", [0.2, 0.5, 0.8])
    def test_round_trip(self, alpha, kappa):
        p = tr.limit_probability(kappa, alpha)
        est = tr.estimate_alpha_from_frequency(p, kappa, 1000)
        assert abs(est.alpha_hat - alpha) < 1e-12

    def test_ci_brackets_estimate(self):
        est = tr.estimate_alpha_from_frequency(0.37, 0.5, 200)
        assert est.ci[0] <= est.alpha_hat <= est.ci[1]

    def test_monotone_decreasing_in_p(self):
        ps = np.linspace(0.05, 0.95, 19)
        alphas = [
            tr.estimate_alpha_from_frequency(p, 0.5, 50).alpha_hat for p in ps
        ]
        assert (np.diff(alphas) < 0).all()

    def test_degenerate_one(self):
        with pytest.raises(DegenerateFrequencyError) as exc:
            tr.estimate_alpha_from_frequency(1.0, 0.5, 50)
        assert exc.value.bound_side == "upper" and exc.value.bound > 0.0

    def test_degenerate_zero(self):
        with pytest.raises(DegenerateFrequencyError) as exc:
            tr.estimate_alpha_from_frequency(0.0, 0.5, 50)
        assert exc.value.bound_side == "lower" and exc.value.bound > 0.0

    def test_interval_end_at_0_is_alpha_inf(self):
        # the Wilson interval's lower end rounds to 0, whose alpha is inf
        est = tr.estimate_alpha_from_frequency(1e-300, 0.5, 10**18, 0.5)
        assert est.ci[0] < est.alpha_hat < est.ci[1] == math.inf

    @pytest.mark.parametrize(
        "p,kappa,blocks", [(0.5, 0.0, 10), (0.5, 1.0, 10), (1.5, 0.5, 10), (0.5, 0.5, 0)]
    )
    def test_domain(self, p, kappa, blocks):
        with pytest.raises(ParameterDomainError):
            tr.estimate_alpha_from_frequency(p, kappa, blocks)


class TestFromData:
    def test_pareto_recovers_alpha(self):
        fam = tr.make_pareto(1.5, 1.0)
        data = fam.sample(10**6, 2718)
        est = tr.estimate_alpha_from_data(data, 100, 0.5)
        assert 1.4 <= est.alpha_hat <= 1.6
        assert est.ci[0] <= 1.5 <= est.ci[1]
        assert est.block_size == 100 and est.blocks == 10**4

    def test_scale_invariance(self):
        fam = tr.make_half_cauchy(1.0)
        data = np.asarray(fam.sample(10**4, 31))
        a = tr.estimate_alpha_from_data(data, 50, 0.5)
        b = tr.estimate_alpha_from_data(data * 4.0, 50, 0.5)
        c = tr.estimate_alpha_from_data(data * -0.25, 50, 0.5)
        assert a.alpha_hat == b.alpha_hat == c.alpha_hat

    def test_stable_estimate_tracks_mc_probability(self):
        # at finite block size the estimator targets the finite-n event
        # probability, so compare against Monte Carlo at the same (n, kappa)
        fam = tr.make_symmetric_stable(0.6, 1.0)
        n, kappa = 100, 0.5
        data = fam.sample(2 * 10**5, 515)
        est = tr.estimate_alpha_from_data(data, n, kappa)
        ref = tr.mc_probability(fam, n, kappa, 5000, seed=616)
        band = 3.0 * np.sqrt(ref.value * (1 - ref.value) * (1 / 2000 + 1 / 5000))
        assert abs(est.p_hat - ref.value) < band

    def test_all_blocks_trigger(self):
        data = [1.0, 100.0] * 10
        with pytest.raises(DegenerateFrequencyError):
            tr.estimate_alpha_from_data(data, 2, 0.5)

    def test_coverage_sample(self):
        # 20-replication slice of the coverage property; the full
        # 200-replication version runs in the acceptance suite
        fam = tr.make_pareto(1.5, 1.0)
        covered = 0
        for r in range(20):
            data = fam.sample(10**5, seed=9000 + r)
            est = tr.estimate_alpha_from_data(data, 100, 0.5)
            covered += est.ci[0] <= 1.5 <= est.ci[1]
        assert covered >= 16
