"""Tests for page-matrix reshaping and smoothing."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stiefelgen.signal import TimeSeries, from_page_matrix, smooth, to_page_matrix


def series(n):
    return TimeSeries(np.arange(1.0, n + 1.0))


class TestToPageMatrix:
    def test_exact_division(self):
        pm = to_page_matrix(series(2000), 50)
        assert pm.data.shape == (50, 40)
        assert pm.original_length == 2000

    def test_layout_matches_index_rule(self):
        # entry (i, j) must be fitted sample n*i + j (0-based)
        pm = to_page_matrix(series(2000), 50)
        n = pm.n
        for i, j in [(0, 0), (3, 7), (49, 39), (20, 0)]:
            assert pm.data[i, j] == float(n * i + j + 1)

    def test_truncate_drops_tail(self):
        pm = to_page_matrix(series(10), 3, "truncate")
        assert pm.data.shape == (3, 3)
        assert np.array_equal(pm.data.reshape(-1), np.arange(1.0, 10.0))

    def test_pad_edge_short_of_slots_truncates(self):
        # n = round(10/3) = 3 gives 9 slots; nothing to pad
        pm = to_page_matrix(series(10), 3, "pad_edge")
        assert pm.data.shape == (3, 3)
        assert np.array_equal(pm.data.reshape(-1), np.arange(1.0, 10.0))

    def test_pad_edge_repeats_last_sample(self):
        # n = round(10/4) = 3 gives 12 slots; last two carry sample 10
        pm = to_page_matrix(series(10), 4, "pad_edge")
        assert pm.data.shape == (4, 3)
        flat = pm.data.reshape(-1)
        assert np.array_equal(flat[:10], np.arange(1.0, 11.0))
        assert flat[10] == 10.0 and flat[11] == 10.0

    def test_overlap_last_row_rereads(self):
        pm = to_page_matrix(series(10), 4, "overlap")
        assert pm.data.shape == (4, 3)
        assert np.array_equal(pm.data[3], np.array([8.0, 9.0, 10.0]))
        assert np.array_equal(pm.data[2], np.array([7.0, 8.0, 9.0]))

    def test_rounding_is_half_up(self):
        # 10/4 = 2.5 rounds to 3, not to the even 2
        pm = to_page_matrix(series(10), 4, "pad_edge")
        assert pm.n == 3

    def test_too_short_series(self):
        with pytest.raises(ValueError, match="too short"):
            to_page_matrix(series(5), 3)

    def test_m_must_be_at_least_two(self):
        with pytest.raises(ValueError, match="m must be an integer >= 2, got 1"):
            to_page_matrix(series(10), 1)

    def test_unknown_strategy(self):
        with pytest.raises(ValueError, match="strategy"):
            to_page_matrix(series(10), 3, "mirror")


class TestFromPageMatrix:
    def test_roundtrip_exact_division(self):
        s = series(2000)
        assert np.array_equal(from_page_matrix(to_page_matrix(s, 50)).values, s.values)

    def test_roundtrip_pad_edge(self):
        s = series(10)
        out = from_page_matrix(to_page_matrix(s, 4, "pad_edge"))
        assert np.array_equal(out.values, s.values)

    def test_roundtrip_truncate(self):
        s = series(10)
        out = from_page_matrix(to_page_matrix(s, 3, "truncate"))
        assert np.array_equal(out.values, s.values[:9])

    def test_roundtrip_overlap(self):
        s = series(10)
        out = from_page_matrix(to_page_matrix(s, 4, "overlap"))
        assert np.array_equal(out.values, s.values)

    @given(big_n=st.integers(20, 200), m=st.integers(2, 10))
    @settings(max_examples=60, deadline=None)
    def test_roundtrip_identity_when_m_divides(self, big_n, m):
        big_n = (big_n // m) * m
        if big_n < 2 * m:
            big_n = 2 * m
        s = TimeSeries(np.sin(np.arange(big_n) * 0.37))
        for strategy in ("truncate", "pad_edge", "overlap"):
            out = from_page_matrix(to_page_matrix(s, m, strategy))
            assert np.array_equal(out.values, s.values)


class TestSmooth:
    def test_window_one_is_identity(self):
        s = series(20)
        assert smooth(s, 1) is s

    def test_constant_series_unchanged(self):
        s = TimeSeries(np.full(30, 4.25))
        for w in (2, 3, 7, 30):
            assert np.abs(smooth(s, w).values - 4.25).max() < 1e-12

    def test_hand_computed_edges(self):
        s = TimeSeries(np.array([0.0, 1.0, 2.0, 3.0, 4.0]))
        assert np.allclose(smooth(s, 3).values, [0.5, 1.0, 2.0, 3.0, 3.5], atol=1e-14)

    def test_length_preserved(self, rng):
        s = TimeSeries(rng.standard_normal(101))
        for w in (2, 5, 20, 101):
            assert len(smooth(s, w)) == 101

    @given(
        values=st.lists(st.floats(-100, 100), min_size=2, max_size=50),
        window=st.integers(1, 60),
    )
    @settings(max_examples=100, deadline=None)
    def test_never_extends_range(self, values, window):
        s = TimeSeries(np.asarray(values))
        out = smooth(s, window).values
        assert out.min() >= s.values.min() - 1e-9
        assert out.max() <= s.values.max() + 1e-9

    def test_rejects_bad_window(self):
        with pytest.raises(ValueError, match="window"):
            smooth(series(5), 0)


class TestTimeSeries:
    def test_rejects_non_finite(self):
        with pytest.raises(ValueError, match="finite"):
            TimeSeries(np.array([1.0, np.nan]))
