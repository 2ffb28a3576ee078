"""Top-two selection and the two outlier rules."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import tailratio as tr
from tailratio import outliers
from tailratio.errors import InsufficientDataError, ParameterDomainError

finite_floats = st.floats(
    min_value=-1e12, max_value=1e12, allow_nan=False, allow_infinity=False
)
# blocks rich in ties and zeros, and blocks of one repeated value
blocks = st.one_of(
    st.lists(
        st.one_of(finite_floats, st.sampled_from([0.0, -0.0, 1.0, -1.0, 2.0])),
        min_size=2,
        max_size=40,
    ),
    st.builds(lambda v, n: [v] * n, finite_floats, st.integers(2, 40)),
)


class TestTopTwo:
    def test_basic(self):
        top = tr.top_two_magnitudes([1.0, -2.0, 10.0])
        assert (top.max_magnitude, top.second_magnitude) == (10.0, 2.0)
        assert (top.max_index, top.second_index) == (2, 1)

    def test_tie_earlier_index_ranks_higher(self):
        top = tr.top_two_magnitudes([5.0, 5.0])
        assert top.max_magnitude == top.second_magnitude == 5.0
        assert top.max_index == 0 and top.second_index == 1

    def test_tie_on_magnitude_across_signs(self):
        top = tr.top_two_magnitudes([-7.5, 3.0, 7.5, 1.0])
        assert (top.max_magnitude, top.second_magnitude) == (7.5, 7.5)
        assert (top.max_index, top.second_index) == (0, 2)

    def test_too_short(self):
        with pytest.raises(InsufficientDataError):
            tr.top_two_magnitudes([1.0])

    def test_matches_sorted_magnitudes(self):
        rng = np.random.default_rng(515)
        for i in range(1000):
            data = rng.standard_cauchy(rng.integers(2, 500))
            if i % 2:
                data = np.round(data)  # many ties, zeros included
            top = tr.top_two_magnitudes(data)
            ordered = np.sort(np.abs(data))
            assert top.max_magnitude == ordered[-1]
            assert top.second_magnitude == ordered[-2]
            # a stable descending sort puts the earlier of tied indices first
            rank = np.argsort(-np.abs(data), kind="stable")
            assert (top.max_index, top.second_index) == (rank[0], rank[1])


class TestIsOutlier:
    def test_positive(self):
        v = tr.is_outlier([1.0, -2.0, 10.0], 0.5)
        assert v.is_outlier and v.ratio == pytest.approx(0.2)

    def test_negative(self):
        assert not tr.is_outlier([1.0, 2.0, 3.0], 0.5).is_outlier

    def test_boundary_is_nonstrict(self):
        assert tr.is_outlier([4.0, 2.0], 0.5).is_outlier

    def test_all_zero(self):
        v = tr.is_outlier([0.0, 0.0], 0.5)
        assert v.ratio == 0.0 and v.is_outlier

    @pytest.mark.parametrize("kappa", [0.0, 1.0, -0.3, 2.0])
    def test_kappa_domain(self, kappa):
        with pytest.raises(ParameterDomainError):
            tr.is_outlier([1.0, 2.0], kappa)

    @given(
        data=st.lists(finite_floats, min_size=2, max_size=40),
        k1=st.floats(min_value=0.01, max_value=0.98),
        k2=st.floats(min_value=0.01, max_value=0.98),
    )
    @settings(max_examples=200)
    def test_monotone_in_kappa(self, data, k1, k2):
        lo, hi = sorted((k1, k2))
        if tr.is_outlier(data, lo).is_outlier:
            assert tr.is_outlier(data, hi).is_outlier

    @given(
        data=st.lists(finite_floats, min_size=2, max_size=40),
        log2_c=st.integers(min_value=-30, max_value=30),
        sign=st.sampled_from([-1.0, 1.0]),
    )
    @settings(max_examples=200)
    def test_scale_invariance(self, data, log2_c, sign):
        # power-of-two scaling is exact in binary floating point, so the
        # ratio event must be bit-for-bit unchanged; scaling down a subnormal
        # can round (5e-324 / 2 is 0), which breaks that premise
        c = 2.0**log2_c
        assume(all(sign * c * v / c / sign == v for v in data))
        scaled = [sign * c * v for v in data]
        assert (
            tr.is_outlier(scaled, 0.5).is_outlier
            == tr.is_outlier(data, 0.5).is_outlier
        )


class TestKSigma:
    def test_single_spike_is_hidden_at_k2(self):
        # |10 - 2.5| = 7.5 <= 2 * 4.3301: the spike inflates s past its own deviation
        assert tr.ksigma_outliers([0.0, 0.0, 0.0, 10.0], 2.0) == set()

    def test_single_spike_found_at_k1(self):
        assert tr.ksigma_outliers([0.0, 0.0, 0.0, 10.0], 1.0) == {3}

    def test_constant_data(self):
        assert tr.ksigma_outliers([3.0] * 10, 2.0) == set()

    def test_population_variance_convention(self):
        # with 1/(n-1) variance the k=2 threshold would be exceeded
        data = np.array([0.0, 0.0, 0.0, 10.0])
        s_pop = data.std()
        s_sample = data.std(ddof=1)
        assert 7.5 <= 2.0 * s_pop < 2.0 * s_sample

    @pytest.mark.parametrize("data,flagged", [
        ([1e308, 1e308, 0.0], {2}),
        ([1e300, 1e300, 0.0], {2}),
        # each square fits in a float, but the sum of eight does not
        ([2.0**510.9, -2.0**510.9] * 4 + [0.0], set(range(8))),
    ], ids=["1e308", "1e300", "sum"])
    def test_squares_beyond_the_float_range(self, data, flagged):
        # unscaled, a sum behind the mean or s overflows, and every index is hidden
        assert tr.ksigma_outliers(data, 1.0) == flagged

    def test_scale_invariance(self):
        # a power-of-two scale is exact; unscaled, the squared deviations of
        # small data underflow, s reads 0 and every index is hidden
        x = (1.0 - np.random.default_rng(3).random(2000)) ** (-1.0 / 1.5)
        flagged = tr.ksigma_outliers(x, 3.0)
        assert flagged
        for j in range(-1000, 1001):
            assert tr.ksigma_outliers(np.ldexp(x, j), 3.0) == flagged, j

    def test_holds_one_deviation_array(self):
        # numpy's buffers are traced: beside x, one array of |x - mean| at a time
        x = np.random.default_rng(5).standard_normal(200_000)
        tracemalloc.start()
        try:
            tr.ksigma_outliers(x, 3.0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * x.nbytes

    def test_bad_k(self):
        with pytest.raises(ParameterDomainError):
            tr.ksigma_outliers([1.0, 2.0], 0.0)

    def test_too_short(self):
        with pytest.raises(InsufficientDataError):
            tr.ksigma_outliers([1.0], 2.0)


class TestBlockFrequency:
    def test_two_blocks(self):
        p_hat, blocks = tr.block_event_frequency([1, 2, 10, 1, 2, 3], 3, 0.5)
        assert p_hat == 0.5 and blocks == 2

    def test_remainder_discarded(self):
        p_hat, blocks = tr.block_event_frequency([1, 2, 10, 1, 2, 3, 99], 3, 0.5)
        assert blocks == 2

    def test_matches_per_block_is_outlier(self):
        rng = np.random.default_rng(77)
        data = rng.standard_cauchy(1000)
        p_hat, blocks = tr.block_event_frequency(data, 25, 0.5)
        manual = np.mean(
            [tr.is_outlier(data[i * 25 : (i + 1) * 25], 0.5).is_outlier for i in range(40)]
        )
        assert blocks == 40 and p_hat == manual

    def test_too_short(self):
        with pytest.raises(InsufficientDataError):
            tr.block_event_frequency([1.0, 2.0], 3, 0.5)

    def test_pareto_frequency_near_exact_value(self):
        # the event probability for Pareto is kappa**alpha at every block size
        fam = tr.make_pareto(1.5, 1.0)
        data = fam.sample(10**5, 1234)
        p_hat, blocks = tr.block_event_frequency(data, 100, 0.5)
        p = 0.5**1.5
        band = 3.0 * np.sqrt(p * (1.0 - p) / blocks)
        assert abs(p_hat - p) < band


class TestOneEvent:
    @given(
        block=blocks,
        kappa=st.one_of(
            st.sampled_from([0.5, 0.25]), st.floats(min_value=0.01, max_value=0.99)
        ),
    )
    @settings(max_examples=300)
    def test_scalar_and_block_tests_agree(self, block, kappa):
        freq, count = tr.block_event_frequency(block, len(block), kappa)
        assert count == 1
        assert tr.is_outlier(block, kappa).is_outlier == (freq == 1.0)


class TestNonFinite:
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize(
        "call",
        [
            tr.top_two_magnitudes,
            lambda d: tr.is_outlier(d, 0.5),
            lambda d: tr.ksigma_outliers(d, 3.0),
            lambda d: tr.block_event_frequency(d, 2, 0.5),
        ],
        ids=["top_two", "is_outlier", "ksigma", "block_frequency"],
    )
    def test_rejected_with_index(self, call, bad):
        with pytest.raises(ParameterDomainError, match="index 2"):
            call([1.0, 2.0, bad, 10.0])


@pytest.mark.parametrize(
    "call",
    [
        tr.top_two_magnitudes,
        lambda d: tr.is_outlier(d, 0.5),
        lambda d: tr.ksigma_outliers(d, 3.0),
        lambda d: tr.block_event_frequency(d, 5, 0.5),
        lambda d: tr.estimate_alpha_from_data(d, 5, 0.5),
    ],
    ids=["top_two", "is_outlier", "ksigma", "block_frequency", "estimate_alpha"],
)
def test_multi_dimensional_data_is_an_argument_error(call):
    # not InsufficientDataError: 100 values are enough, in the wrong shape
    with pytest.raises(ParameterDomainError, match=r"shape \(10, 10\)"):
        call(np.ones((10, 10)))


# inputs that put ties, signs and the largest value on the edges of 8-value blocks
EDGES = {
    "tie-across-an-edge": [0.0] * 7 + [5.0, 5.0] + [1.0] * 7,
    "signed-tie-across-an-edge": [1.0] * 3 + [-5.0] + [2.0] * 5 + [5.0] + [0.0] * 6,
    "second-tie-across-an-edge": [9.0] + [4.0] * 7 + [-4.0] * 8 + [4.0],
    "largest-alone-in-the-last-block": [float(v) for v in range(16)] + [99.0],
    "all-zeros": [0.0] * 20,
    "n=2": [-3.0, 3.0],
    "rounded-cauchy": np.round(np.random.default_rng(28).standard_cauchy(300)).tolist(),
}


class TestBlockEdges:
    """Each kernel, in blocks of 8 values, against its whole-array formula."""

    @pytest.fixture(autouse=True)
    def blocks_of_eight(self, monkeypatch):
        monkeypatch.setattr(outliers, "_BLOCK_VALUES", 8)

    @pytest.mark.parametrize("data", EDGES.values(), ids=EDGES.keys())
    def test_top_two(self, data):
        mags = np.abs(data)
        rank = np.argsort(-mags, kind="stable")  # the earlier of a tie first
        expected = (mags[rank[0]], mags[rank[1]], rank[0], rank[1])
        top = tr.top_two_magnitudes(data)
        assert top == tr.TopTwo(*expected)
        assert tr.is_outlier(data, 0.5).top_two == top

    @pytest.mark.parametrize("name,block_size", [
        (name, n) for name, data in EDGES.items() for n in (2, 3, 5, 8, 9, 17) if n <= len(data)])
    def test_block_frequency(self, name, block_size):
        data = EDGES[name]
        blocks = len(data) // block_size
        mags = np.sort(np.abs(data[: blocks * block_size]).reshape(blocks, -1), axis=1)
        hits = np.count_nonzero(mags[:, -2] <= 0.5 * mags[:, -1])
        assert tr.block_event_frequency(data, block_size, 0.5) == (hits / blocks, blocks)

    @pytest.mark.parametrize("k", [0.5, 1.0, 3.0])
    @pytest.mark.parametrize("data", [
        *EDGES.values(), np.random.default_rng(29).standard_cauchy(1000),
        np.random.default_rng(30).standard_normal(333) + 1e3,
    ], ids=[*EDGES.keys(), "cauchy-1000", "normal-333"])
    def test_ksigma(self, data, k):
        x = np.asarray(data)
        s = x.std()
        expected = set(np.flatnonzero(np.abs(x - x.mean()) > k * s).tolist()) if s else set()
        assert tr.ksigma_outliers(x, k) == expected


def test_sum_of_squares_is_numpy_std_bit_for_bit():
    # numpy's pairwise tree, followed down to blocks, adds the same floats in the same order
    rng = np.random.default_rng(2028)
    base = np.concatenate([rng.standard_cauchy(1_500_000), rng.standard_normal(1_500_000) + 7.0])
    block = outliers._BLOCK_VALUES
    sizes = {int(v) for v in np.geomspace(2, base.size, 180)}  # about 200 sizes in all
    sizes |= {m * c + d for m in (8, 128, block) for c in (1, 2, 3, 64, 257, 366)
              for d in (-1, 0, 1)}
    for n in sorted(sizes):
        x = base[(at := int(rng.integers(0, base.size - n + 1))):at + n]
        assert np.sqrt(outliers._sum_of_squares(x, x.mean()) / n) == x.std(), n


@pytest.mark.parametrize("call", [
    tr.top_two_magnitudes, lambda x: tr.is_outlier(x, 0.5),
    lambda x: tr.block_event_frequency(x, 100, 0.5), lambda x: tr.ksigma_outliers(x, 3.0),
], ids=["top_two", "is_outlier", "block_frequency", "ksigma"])
def test_kernels_hold_one_block(call):
    # numpy's buffers are traced: beside the 7.6 MiB input, one 64 KiB block at a time
    x = np.random.default_rng(31).standard_normal(10**6)
    tracemalloc.start()
    try:
        call(x)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * 2**20
