"""Tests for modified band depth and functional boxplots."""

import itertools
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stiefelgen.fda import _MBD_BLOCK, FunctionalEnsemble, functional_boxplot, mbd


def brute_force_mbd(curves: np.ndarray) -> np.ndarray:
    """Direct enumeration over all C(K, 2) bands, boundaries inclusive."""
    k, t = curves.shape
    depths = np.zeros(k)
    pairs = list(itertools.combinations(range(k), 2))
    for c in range(k):
        total = 0.0
        for i, j in pairs:
            lo = np.minimum(curves[i], curves[j])
            hi = np.maximum(curves[i], curves[j])
            total += np.mean((lo <= curves[c]) & (curves[c] <= hi))
        depths[c] = total / len(pairs)
    return depths


def float_count_mbd(curves: np.ndarray) -> np.ndarray:
    """The per-column counts held in k x t float arrays and summed along each row."""
    k, t = curves.shape
    n_pairs = k * (k - 1) // 2
    order = np.sort(curves, axis=0)
    below = np.column_stack([np.searchsorted(order[:, c], curves[:, c], side="left") for c in range(t)])
    above = k - np.column_stack([np.searchsorted(order[:, c], curves[:, c], side="right") for c in range(t)])
    contained = n_pairs - below * (below - 1) / 2.0 - above * (above - 1) / 2.0
    return contained.sum(axis=1) / (t * n_pairs)


class TestMbd:
    def test_integer_total_equals_float_sum_bitwise(self):
        # every partial sum is an integer below 2^53, so both orders are exact
        rng = np.random.default_rng(4)
        curves = np.vstack([rng.standard_normal((300, 200)), rng.integers(0, 4, size=(200, 200))])
        assert np.array_equal(mbd(FunctionalEnsemble(curves)), float_count_mbd(curves))

    def test_constant_curves_fixture(self):
        ens = FunctionalEnsemble(np.array([[0.0] * 4, [1.0] * 4, [2.0] * 4]))
        depths = mbd(ens)
        assert np.allclose(depths, [2 / 3, 1.0, 2 / 3], atol=1e-14)

    def test_two_curves_both_depth_one(self, rng):
        ens = FunctionalEnsemble(rng.standard_normal((2, 10)))
        assert np.allclose(mbd(ens), [1.0, 1.0], atol=1e-14)

    def test_matches_brute_force(self):
        rng = np.random.default_rng(2)
        ens = FunctionalEnsemble(rng.standard_normal((6, 15)))
        assert np.abs(mbd(ens) - brute_force_mbd(ens.curves)).max() < 1e-12

    def test_matches_brute_force_with_ties(self):
        rng = np.random.default_rng(3)
        curves = rng.integers(0, 3, size=(7, 9)).astype(float)
        ens = FunctionalEnsemble(curves)
        assert np.abs(mbd(ens) - brute_force_mbd(curves)).max() < 1e-12

    # t runs past two blocks of time points, so draws span block boundaries
    @given(k=st.integers(2, 8), t=st.integers(1, 2 * _MBD_BLOCK + 10), seed=st.integers(0, 10_000))
    @settings(max_examples=120, deadline=None)
    def test_oracle_equivalence_property(self, k, t, seed):
        curves = np.random.default_rng(seed).standard_normal((k, t))
        assert np.abs(mbd(FunctionalEnsemble(curves)) - brute_force_mbd(curves)).max() < 1e-12

    @pytest.mark.parametrize("t", [1, _MBD_BLOCK - 1, _MBD_BLOCK, _MBD_BLOCK + 1, 2 * _MBD_BLOCK + 3])
    @pytest.mark.parametrize("k", [2, 500])
    @pytest.mark.parametrize("kind", ["normal", "integer ties", "signed zeros", "constant columns"])
    @pytest.mark.parametrize("order", ["C", "F"])
    def test_blocks_equal_float_counts_bitwise(self, t, k, kind, order):
        r = np.random.default_rng(t * 1009 + k)
        curves = r.standard_normal((k, t))
        if kind == "integer ties":
            curves = r.integers(0, 3, size=(k, t)).astype(float)
        elif kind == "signed zeros":
            # -0.0 == 0.0, so each zero ties with every other zero of its column
            curves[r.random((k, t)) < 0.5] = 0.0
            curves[r.random((k, t)) < 0.3] = -0.0
        elif kind == "constant columns":
            curves[:, ::3] = 1.5
        curves = np.asarray(curves, order=order)
        ens = FunctionalEnsemble(curves)
        assert ens.curves.flags[f"{order}_CONTIGUOUS"]
        assert np.array_equal(mbd(ens), float_count_mbd(curves))

    def test_peak_memory_is_a_fraction_of_the_ensemble(self):
        # the ensemble workflow's size; sorting every time point at once needs several times its bytes
        ens = FunctionalEnsemble(np.random.default_rng(6).standard_normal((500, 2000)))
        tracemalloc.start()
        try:
            mbd(ens)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 0.5 * ens.curves.nbytes

    def test_values_in_unit_interval(self, rng):
        depths = mbd(FunctionalEnsemble(rng.standard_normal((12, 30))))
        assert depths.min() >= 0.0 and depths.max() <= 1.0

    def test_translation_invariance(self, rng):
        curves = rng.standard_normal((8, 20))
        d1 = mbd(FunctionalEnsemble(curves))
        d2 = mbd(FunctionalEnsemble(curves + 17.3))
        assert np.abs(d1 - d2).max() < 1e-12

    def test_positive_scaling_preserves_order(self, rng):
        curves = rng.standard_normal((9, 25))
        d1 = mbd(FunctionalEnsemble(curves))
        d2 = mbd(FunctionalEnsemble(3.7 * curves))
        assert np.array_equal(np.argsort(d1), np.argsort(d2))

    def test_rejects_single_curve(self):
        # a one-row container is legal (batch draws of count 1), but no
        # band exists to measure depth against
        ens = FunctionalEnsemble(np.zeros((1, 5)))
        with pytest.raises(ValueError, match="2 curves"):
            mbd(ens)


class TestFunctionalBoxplot:
    def test_constant_fixture(self):
        ens = FunctionalEnsemble(np.array([[0.0] * 5, [1.0] * 5, [2.0] * 5]))
        box = functional_boxplot(ens)
        assert box.median_index == 1
        lo, hi = box.central_envelopes[0.5]
        # ceil(0.5 * 3) = 2 deepest curves are y=1 and y=0 (tie broken low)
        assert np.all(lo == 0.0) and np.all(hi == 1.0)

    def test_envelope_nesting(self, rng):
        ens = FunctionalEnsemble(rng.standard_normal((20, 40)))
        box = functional_boxplot(ens, proportions=(0.5, 0.75))
        lo50, hi50 = box.central_envelopes[0.5]
        lo75, hi75 = box.central_envelopes[0.75]
        assert np.all(lo75 <= lo50) and np.all(hi50 <= hi75)

    def test_median_inside_every_envelope(self, rng):
        ens = FunctionalEnsemble(rng.standard_normal((15, 25)))
        box = functional_boxplot(ens, proportions=(0.3, 0.5, 0.9))
        med = ens.curves[box.median_index]
        for lo, hi in box.central_envelopes.values():
            assert np.all(lo <= med) and np.all(med <= hi)

    def test_spike_curve_flagged_as_outlier(self):
        # hand-traceable fence values: ten constant levels 0..9, plus an
        # edge-level curve (low depth, outside the 50% envelope) carrying
        # a spike far past the inflated fences at one point
        levels = np.arange(10.0)
        curves = np.repeat(levels[:, None], 8, axis=1)
        spike = np.full(8, 9.5)
        spike[3] = 1000.0
        ens = FunctionalEnsemble(np.vstack([curves, spike]))
        box = functional_boxplot(ens)
        assert 10 in box.outlier_indices
        # the constant central curves stay inside the fences
        assert all(i not in box.outlier_indices for i in range(2, 8))

    def test_no_outliers_for_tight_ensemble(self, rng):
        curves = 0.01 * rng.standard_normal((10, 30))
        box = functional_boxplot(FunctionalEnsemble(curves), fence_factor=10.0)
        assert box.outlier_indices == []

    def test_fences_expand_fifty_percent_envelope(self, rng):
        ens = FunctionalEnsemble(rng.standard_normal((9, 12)))
        box = functional_boxplot(ens, fence_factor=1.5)
        lo, hi = box.central_envelopes[0.5]
        assert np.allclose(box.fences[0], lo - 1.5 * (hi - lo), atol=1e-14)
        assert np.allclose(box.fences[1], hi + 1.5 * (hi - lo), atol=1e-14)

    def test_rejects_bad_proportion(self, rng):
        ens = FunctionalEnsemble(rng.standard_normal((5, 5)))
        with pytest.raises(ValueError, match="proportions"):
            functional_boxplot(ens, proportions=(0.0,))

    def test_rejects_duplicate_proportions(self, rng):
        # a duplicate would be reported once among the envelopes but twice among the proportions
        ens = FunctionalEnsemble(rng.standard_normal((5, 5)))
        with pytest.raises(ValueError, match="proportions must be distinct"):
            functional_boxplot(ens, proportions=(0.5, 0.50, 0.75))

    @pytest.mark.parametrize("fence", [np.nan, np.inf, -np.inf, -5.0, -1e-12])
    def test_rejects_non_finite_or_negative_fence(self, rng, fence):
        ens = FunctionalEnsemble(rng.standard_normal((5, 5)))
        with pytest.raises(ValueError, match="fence_factor must be finite and >= 0"):
            functional_boxplot(ens, fence_factor=fence)

    @pytest.mark.parametrize("t", [2, _MBD_BLOCK - 1, _MBD_BLOCK + 1, 2 * _MBD_BLOCK + 3])
    @pytest.mark.parametrize("order", ["C", "F"])
    def test_blockwise_summary_equals_whole_array_summary_bitwise(self, t, order):
        # signed zeros: -0.0 == 0.0, so which zero an extreme holds depends on the order min/max visit them.
        # Columns take values in {0, 1} or {-1, 0}, so most extremes are zeros; every third is normal,
        # which leaves curves outside the zero fence.
        r = np.random.default_rng(t)
        curves = r.integers(0, 2, size=(300, t)) - np.arange(t) % 2.0
        curves[(curves == 0) & (r.random(curves.shape) < 0.5)] = -0.0
        curves[:, 2::3] = r.standard_normal((300, len(range(2, t, 3))))
        ens = FunctionalEnsemble(np.asarray(curves, order=order))
        box = functional_boxplot(ens, proportions=(0.5, 0.75, 1.0), fence_factor=0.0)
        deepest = np.argsort(-box.depths, kind="stable")
        for p, (lo, hi) in box.central_envelopes.items():
            sub = ens.curves[deepest[: int(np.ceil(p * 300))]]
            assert lo.tobytes() == sub.min(axis=0).tobytes() and hi.tobytes() == sub.max(axis=0).tobytes()
        outside = (ens.curves < box.fences[0]) | (ens.curves > box.fences[1])
        assert box.outlier_indices == np.nonzero(outside.any(axis=1))[0].tolist() != []

    def test_zero_fence_is_the_fifty_percent_envelope(self, rng):
        ens = FunctionalEnsemble(rng.standard_normal((9, 12)))
        box = functional_boxplot(ens, fence_factor=0.0)
        lo, hi = box.central_envelopes[0.5]
        assert np.array_equal(box.fences[0], lo) and np.array_equal(box.fences[1], hi)
