"""Running-mean trajectories and the scaling-exponent experiment."""

import numpy as np
import pytest

import tailratio as tr
from tailratio.errors import CapabilityError, ParameterDomainError
from tailratio.families import TailFamily
from tailratio.rng import substream


def constant_family(value):
    return TailFamily(
        name="constant",
        params={"value": value},
        _sampler=lambda rng, size: np.full(size, value),
    )


class TestRunningMean:
    def test_constant_stream(self):
        series = tr.running_mean_trajectory(constant_family(3.5), [10, 100, 1000], seed=1)
        assert series.running_means == (3.5, 3.5, 3.5)

    def test_gaussian_settles(self):
        fam = tr.make_symmetric_stable(2.0, 1.0)  # normal, variance 2
        series = tr.running_mean_trajectory(fam, [10**5], seed=12)
        assert abs(series.running_means[0]) < 0.05  # 3 sigma at sqrt(2/n)

    def test_deterministic(self):
        fam = tr.make_symmetric_stable(1.0, 1.0)
        a = tr.running_mean_trajectory(fam, [100, 5000], seed=77)
        b = tr.running_mean_trajectory(fam, [100, 5000], seed=77)
        assert a.running_means == b.running_means

    def test_checkpoint_means_match_direct_means(self):
        # cross-check the streaming accumulation against a one-shot draw
        fam = tr.make_pareto(3.0, 1.0)
        series = tr.running_mean_trajectory(fam, [7, 100, 400], seed=5)
        x = fam.sample_with(substream(5, 0), 400)
        for cp, mean in zip(series.checkpoints, series.running_means):
            assert mean == pytest.approx(x[:cp].mean(), rel=1e-12)

    def test_chunk_boundaries_do_not_matter(self, monkeypatch):
        fam = tr.make_half_cauchy(1.0)
        big = tr.running_mean_trajectory(fam, [500, 2500], seed=3)
        monkeypatch.setattr(tr.lln, "_CHUNK", 137)
        small = tr.running_mean_trajectory(fam, [500, 2500], seed=3)
        assert np.allclose(big.running_means, small.running_means, rtol=1e-12)

    @pytest.mark.parametrize(
        "cps", [[100, 50], [0, 10], [10, 10], [], [10, 20.5]]
    )
    def test_bad_checkpoints(self, cps):
        with pytest.raises(ParameterDomainError):
            tr.running_mean_trajectory(tr.make_half_cauchy(1.0), cps, seed=1)

    def test_needs_sampler(self):
        fam = TailFamily(name="nosampler", _pdf=lambda x: x)
        with pytest.raises(CapabilityError):
            tr.running_mean_trajectory(fam, [100], seed=1)


class TestOneStream:
    """Replication r of the scaling table is trajectory r."""

    @pytest.mark.parametrize("replications", [5, 6])
    def test_scaling_medians_are_medians_of_trajectories(self, replications):
        fam, ns = tr.make_pareto(1.5, 1.0), [100, 1000, 20000]  # 20000 spans two chunks
        res = tr.scaling_exponent_experiment(fam, ns, replications, seed=9)
        rows = [tr.running_mean_trajectory(fam, ns, 9, r).running_means
                for r in range(replications)]
        medians = tuple(float(np.median([abs(row[i] - fam.mean) for row in rows]))
                        for i in range(len(ns)))
        assert res.per_n_medians == medians

    def test_scaling_row_does_not_depend_on_its_position(self):
        fam = tr.make_symmetric_stable(0.6, 1.0)
        short = tr.scaling_exponent_experiment(fam, [1000, 10000], 7, seed=1)
        long = tr.scaling_exponent_experiment(fam, [100, 1000, 10000], 7, seed=1)
        assert short.per_n_medians == long.per_n_medians[1:]


class TestScalingExperiment:
    def test_deterministic(self):
        fam = tr.make_symmetric_stable(1.5, 1.0)
        a = tr.scaling_exponent_experiment(fam, [100, 1000], 50, seed=4)
        b = tr.scaling_exponent_experiment(fam, [100, 1000], 50, seed=4)
        assert a.slope == b.slope and a.per_n_medians == b.per_n_medians

    def test_sign_split(self):
        heavy = tr.scaling_exponent_experiment(
            tr.make_symmetric_stable(0.6, 1.0), [10**3, 10**4], 100, seed=21
        )
        light = tr.scaling_exponent_experiment(
            tr.make_symmetric_stable(1.5, 1.0), [10**3, 10**4], 100, seed=21
        )
        assert heavy.slope > 0.0 > light.slope

    def test_gaussian_slope_near_minus_half(self):
        res = tr.scaling_exponent_experiment(
            tr.make_symmetric_stable(2.0, 1.0), [10**3, 10**4, 10**5], 100, seed=33
        )
        assert res.slope == pytest.approx(-0.5, abs=0.1)

    def test_pareto_slope_centred_by_the_mean(self):
        # magnitudes have mean 3; uncentred, |mean| settles there and the
        # slope reads about 0 instead of 1/alpha - 1
        res = tr.scaling_exponent_experiment(
            tr.make_pareto(1.5, 1.0), [10**3, 10**4, 10**5], 200, seed=3
        )
        assert res.slope == pytest.approx(-1.0 / 3.0, abs=0.1)

    def test_bad_ns(self):
        fam = tr.make_symmetric_stable(1.0, 1.0)
        for ns in ([100], [100, 50], [0, 10]):
            with pytest.raises(ParameterDomainError):
                tr.scaling_exponent_experiment(fam, ns, 10, seed=1)


class TestTheorySlope:
    def test_values(self):
        assert tr.theory_slope(0.6) == pytest.approx(2.0 / 3.0)
        assert tr.theory_slope(1.0) == 0.0
        assert tr.theory_slope(1.5) == pytest.approx(-1.0 / 3.0)
        assert tr.theory_slope(2.0) == -0.5

    def test_domain(self):
        with pytest.raises(ParameterDomainError):
            tr.theory_slope(0.0)

    @pytest.mark.parametrize("family,theory", [
        (tr.make_symmetric_stable(0.6), 1.0 / 0.6 - 1.0),
        # stable at alpha = 2 has no tail index; its alpha parameter still counts
        (tr.make_symmetric_stable(2.0), -0.5),
        (tr.make_pareto(1.5), 1.0 / 1.5 - 1.0),
        (tr.make_half_cauchy(), 0.0),
        (tr.make_pareto(3.0), None),
        (tr.make_exponential(), None),
        (tr.make_half_normal(), None),
    ], ids=lambda v: getattr(v, "name", None))
    def test_scaling_result_carries_it(self, family, theory):
        result = tr.scaling_exponent_experiment(family, [10, 100], 3, seed=1)
        assert result.theory_slope == theory
