"""Top-two selection and the two outlier rules."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import tailratio as tr
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
        # ratio event must be bit-for-bit unchanged
        c = 2.0**log2_c
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
