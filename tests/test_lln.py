"""Running-mean trajectories and the scaling-exponent experiment."""

import concurrent.futures
import math
import os
from fractions import Fraction

import numpy as np
import pytest

import tailratio as tr
from tailratio import lln
from tailratio.errors import AccuracyError, CapabilityError, ParameterDomainError
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
        # cross-check the chunked sums against the correctly rounded sum of a one-shot
        # draw: Pareto reads one uniform a variate, so ten chunks are one draw of 10**5
        fam = tr.make_pareto(3.0, 1.0)
        ns = [7, 100, 400, 10**4, 10**5]
        series = tr.running_mean_trajectory(fam, ns, seed=5)
        x = fam.sample_with(substream(5, 0), ns[-1])
        for n, mean in zip(series.ns, series.running_means):
            exact = math.fsum(x[:n]) / n
            assert abs(mean - exact) <= 2 * math.ulp(exact)

    def test_constant_means_are_summed_pairwise(self):
        # a sequential sum's error grows like n ulps (1144 ulps of the mean at 10**4),
        # a pairwise sum's like log n
        means = tr.running_mean_trajectory(constant_family(0.1), [500, 10**4, 10**5], seed=1)
        for mean in means.running_means:
            assert abs(mean - 0.1) <= 2 * math.ulp(0.1)

    @pytest.mark.parametrize("family", [tr.make_symmetric_stable(0.6), tr.make_pareto(1.5)],
                             ids=lambda f: f.name)
    def test_mean_inside_a_chunk_does_not_depend_on_other_sizes(self, family):
        # each size inside a chunk is summed from the chunk's first value, not on from
        # the size before it, so the mean at 500 keeps its bits whatever stands around it
        alone = tr.running_mean_trajectory(family, [500], seed=4)
        among = tr.running_mean_trajectory(family, [100, 500, 20000], seed=4)
        assert alone.running_means[0] == among.running_means[1]

    def test_sampled_array_is_only_read(self):
        # a sampler may hand back a read-only view; the sums never write into it
        fam = TailFamily(name="broadcast",
                         _sampler=lambda rng, size: np.broadcast_to(0.5, (size,)))
        series = tr.running_mean_trajectory(fam, [10, 100], seed=1)
        assert series.running_means == (0.5, 0.5)

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


class TestTrajectories:
    """The replications run on a thread pool, in order, whatever its size."""

    @pytest.mark.parametrize("family", [tr.make_symmetric_stable(1.5), tr.make_pareto(1.5)],
                             ids=lambda f: f.name)
    @pytest.mark.parametrize("replications", [5, 1])  # odd, and fewer than the threads
    def test_thread_count_does_not_change_the_trajectories(self, family, replications):
        cps = [10, 1000, 15000]  # 15000 spans two chunks
        serial = [tr.running_mean_trajectory(family, cps, 6, r) for r in range(replications)]
        for threads in (1, 2, 3):
            assert tr.trajectories(family, cps, replications, 6, threads) == serial

    @pytest.fixture
    def pool_sizes(self, monkeypatch):
        """The sizes of the pools made, by a fake pool that runs its tasks serially.

        No thread is started, so a size as large as 10**6 is safe to ask for.
        """
        sizes = []

        class SerialPool:
            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def submit(self, fn, *args):
                future = concurrent.futures.Future()
                future.set_result(fn(*args))
                return future

        monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", SerialPool)
        return sizes

    def test_few_replications_in_flight(self, monkeypatch):
        """Futures submitted and not yet read stay at two a thread, in order."""
        pool, future = concurrent.futures.ThreadPoolExecutor, concurrent.futures.Future
        submit, result = pool.submit, future.result
        flight = [0, 0]  # now, most

        def counting_submit(self, fn, /, *args, **kwargs):
            flight[0] += 1
            flight[1] = max(flight)
            return submit(self, fn, *args, **kwargs)

        def counting_result(self, timeout=None):
            flight[0] -= 1
            return result(self, timeout)

        monkeypatch.setattr(lln, "running_mean_trajectory", lambda family, ns, seed, r: r)
        monkeypatch.setattr(pool, "submit", counting_submit)
        monkeypatch.setattr(future, "result", counting_result)
        assert tr.trajectories(constant_family(1.0), [10], 10**4, 1, 2) == list(range(10**4))
        assert flight[0] == 0 and flight[1] <= 4

    @pytest.mark.parametrize("threads,replications,workers", [
        (10**6, 5, 3),  # capped by the usable CPUs
        (10**6, 2, 2),  # and by the replications
        (2, 5, 2),
        (None, 5, 3),  # all usable CPUs by default
        (None, 1, 1),
    ])
    def test_pool_size(self, monkeypatch, pool_sizes, threads, replications, workers):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 2, 5}, raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 64)  # CPUs the process may not use
        series = tr.trajectories(constant_family(1.0), [10], replications, 1, threads)
        assert pool_sizes == [workers] and len(series) == replications

    def test_cpu_count_without_affinity(self, monkeypatch, pool_sizes):
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 4)
        tr.trajectories(constant_family(1.0), [10], 5, 1, 10**6)
        tr.trajectories(constant_family(1.0), [10], 5, 1)
        assert pool_sizes == [4, 4]

    @pytest.mark.parametrize("replications,threads", [(0, None), (-1, None), (2.5, None),
                                                      (3, 0), (3, -1), (3, 1.5)])
    def test_bad_counts(self, replications, threads):
        with pytest.raises(ParameterDomainError):
            tr.trajectories(constant_family(1.0), [10], replications, 1, threads)


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


def exact_slope(x, y):
    """The least-squares slope of the float points (x, y), in fractions, rounded once.

    The centred form sum((x - mean x)(y - mean y)) / sum((x - mean x)**2),
    which equals lln's uncentred integer form in exact arithmetic only.
    """
    x, y = [Fraction(v) for v in x], [Fraction(v) for v in y]
    x_bar, y_bar = sum(x) / len(x), sum(y) / len(y)
    return float(sum((a - x_bar) * (b - y_bar) for a, b in zip(x, y))
                 / sum((a - x_bar) ** 2 for a in x))


class TestMedianAndSlope:
    """The table's medians are np.median's, bit for bit; its slope is the exact fit's."""

    @pytest.mark.parametrize("rows", [1, 2, 3, 6, 7, 199, 200])
    def test_column_medians_are_numpy_medians(self, rows):
        table = np.abs(np.random.default_rng(rows).standard_cauchy((rows, 4)))
        assert lln._column_medians(table).tobytes() == np.median(table, axis=0).tobytes()

    @pytest.mark.parametrize("rows", [1, 2, 3, 4, 5])
    def test_column_medians_of_tied_columns(self, rows):
        # ties inside a column, a constant column, two equal columns, and two
        # middle values whose sum overflows, as np.median's mean does
        table = np.array([[1.0, 2.0, 0.5, 0.5, 1e308],
                          [1.0, 2.0, 0.5, 0.5, 1e308],
                          [3.0, 2.0, 0.25, 0.25, 5e-324],
                          [1.0, 2.0, 0.5, 0.5, 1e308],
                          [0.0, 2.0, 7.0, 7.0, 1e308]])[:rows]
        with np.errstate(over="ignore"):
            expected = np.median(table, axis=0)
            assert lln._column_medians(table).tobytes() == expected.tobytes()

    def test_slope_is_the_exact_fit_rounded(self):
        # 2 to 6 points with distinct x: within 1e-9 of polyfit, equal to the exact slope
        rng = np.random.default_rng(29)
        for _ in range(300):
            ns = np.unique(rng.integers(1, 10**7, rng.integers(2, 7)))
            if len(ns) < 2:
                continue
            x, y = np.log(ns), np.log(np.abs(rng.standard_cauchy(len(ns))) + 1e-3)
            slope = lln._least_squares_slope(x, y)
            assert slope == exact_slope(x.tolist(), y.tolist())
            assert slope == pytest.approx(np.polyfit(x, y, 1)[0], rel=1e-9)

    def test_an_overflowed_median_is_refused(self):
        # at n = 1 the two replications' means are 1.5e308, and their sum overflows
        def sampler(rng, size):
            x = np.full(size, 1.5e308)
            x[1::2] *= -1.0
            return x

        fam = TailFamily(name="alternating", _sampler=sampler)
        with pytest.raises(AccuracyError, match="a median overflowed"):
            tr.scaling_exponent_experiment(fam, [1, 3], 2, seed=1)

    @pytest.mark.parametrize("family,ns,replications", [
        (tr.make_symmetric_stable(0.6, 1.0), [10**3, 10**4], 20),
        (tr.make_symmetric_stable(1.5, 1.0), [100, 1000, 10**4], 7),
        (tr.make_pareto(1.5, 1.0), [100, 1000, 5000], 6),
        (tr.make_half_normal(1.0), [10, 100, 1000, 10**4], 9),
    ], ids=lambda v: getattr(v, "name", None))
    def test_experiment_slope_is_the_exact_fit(self, family, ns, replications):
        res = tr.scaling_exponent_experiment(family, ns, replications, seed=2)
        x, y = np.log(ns), np.log(res.per_n_medians)
        assert res.slope == exact_slope(x.tolist(), y.tolist())
        assert res.slope == pytest.approx(np.polyfit(x, y, 1)[0], rel=1e-9)


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
        # stable at alpha = 2 has no tail index, which counts as alpha = 2
        (tr.make_symmetric_stable(2.0), -0.5),
        (tr.make_pareto(1.5), 1.0 / 1.5 - 1.0),
        (tr.make_half_cauchy(), 0.0),
        # a finite variance: the normal domain of attraction, as at alpha = 2
        (tr.make_pareto(3.0), -0.5),
        (tr.make_exponential(), -0.5),
        (tr.make_half_normal(), -0.5),
    ], ids=lambda v: getattr(v, "name", None))
    def test_scaling_result_carries_it(self, family, theory):
        result = tr.scaling_exponent_experiment(family, [10, 100], 3, seed=1)
        assert result.theory_slope == theory
