"""Top-k selection: correctness, determinism, mask/index agreement."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.core.topk import top_k_indices, top_k_mask

scores_1d = hnp.arrays(
    np.float64, st.integers(min_value=0, max_value=40),
    elements=st.floats(min_value=-100, max_value=100, allow_nan=False))


class TestIndices:
    def test_simple(self):
        idx = top_k_indices(np.array([1.0, 5.0, 3.0, 4.0]), 2)
        np.testing.assert_array_equal(idx, [1, 3])

    def test_k_larger_than_n(self):
        idx = top_k_indices(np.array([2.0, 1.0]), 10)
        np.testing.assert_array_equal(idx, [0, 1])

    def test_ties_broken_by_index(self):
        idx = top_k_indices(np.array([5.0, 5.0, 5.0, 1.0]), 2)
        np.testing.assert_array_equal(idx, [0, 1])

    def test_neg_inf_never_selected(self):
        scores = np.array([-np.inf, 1.0, -np.inf, 0.5])
        idx = top_k_indices(scores, 4)
        np.testing.assert_array_equal(idx, [1, 3])

    def test_all_neg_inf(self):
        assert len(top_k_indices(np.full(5, -np.inf), 3)) == 0

    def test_k_zero(self):
        assert len(top_k_indices(np.arange(5.0), 0)) == 0

    def test_rejects_2d(self):
        with pytest.raises(ValueError):
            top_k_indices(np.zeros((2, 2)), 1)

    @given(scores_1d, st.integers(min_value=0, max_value=50))
    @settings(max_examples=40, deadline=None)
    def test_matches_sorted_reference(self, scores, k):
        idx = top_k_indices(scores, k)
        assert len(idx) == min(k, len(scores))
        # Scores sorted descending.
        sel = scores[idx]
        assert (np.diff(sel) <= 0).all()
        # Nothing outside the selection beats anything inside it.
        if len(idx) and len(scores) > len(idx):
            rest = np.delete(scores, idx)
            assert rest.max() <= sel.min() + 1e-12


class TestMask:
    def test_agrees_with_indices_per_row(self, rng):
        scores = rng.normal(size=(6, 30))
        scores[rng.random(size=scores.shape) < 0.3] = -np.inf
        mask = top_k_mask(scores, 5)
        for row in range(6):
            expected = np.zeros(30, dtype=bool)
            expected[top_k_indices(scores[row], 5)] = True
            np.testing.assert_array_equal(mask[row], expected)

    def test_k_zero_or_empty(self, rng):
        assert not top_k_mask(rng.normal(size=(3, 4)), 0).any()
        assert top_k_mask(np.empty((3, 0)), 5).shape == (3, 0)

    def test_k_covers_all_finite(self, rng):
        scores = rng.normal(size=(2, 6))
        scores[0, 3] = -np.inf
        mask = top_k_mask(scores, 6)
        assert mask.sum() == 11

    def test_at_most_k_per_row(self, rng):
        scores = rng.normal(size=(4, 50))
        assert (top_k_mask(scores, 7).sum(axis=1) == 7).all()

    def test_boundary_tie_on_padded_row(self):
        """Boundary ties fill by lower index on a row left-aligned with
        -inf padding, beside rows that need no fill at all (the tie-fill
        runs per row): one crowded row, one exact-fit tie, one row whose
        boundary is the padding itself, one plain row, under a leading
        batch axis."""
        inf = np.inf
        scores = np.array([[
            [5.0, 3.0, 3.0, 3.0, 1.0, -inf, -inf, -inf],   # 3 tied, 2 slots
            [5.0, 3.0, 3.0, 1.0, 0.0, -inf, -inf, -inf],   # 2 tied, 2 slots
            [2.0, 1.0, -inf, -inf, -inf, -inf, -inf, -inf],  # < k finite
            [8.0, 7.0, 6.0, 5.0, 4.0, 3.0, 2.0, 1.0],
        ]])
        expected = np.array([[
            [1, 1, 1, 0, 0, 0, 0, 0],
            [1, 1, 1, 0, 0, 0, 0, 0],
            [1, 1, 0, 0, 0, 0, 0, 0],
            [1, 1, 1, 0, 0, 0, 0, 0],
        ]], dtype=bool)
        np.testing.assert_array_equal(top_k_mask(scores, 3), expected)
        for row in range(4):
            by_index = np.zeros(8, dtype=bool)
            by_index[top_k_indices(scores[0, row], 3)] = True
            np.testing.assert_array_equal(expected[0, row], by_index)

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 10_000), k=st.integers(1, 12),
           pad=st.integers(1, 40))
    def test_right_padding_with_minus_inf_changes_nothing(self, seed, k, pad):
        """A row's mask is the same at the stacked width: stages 1-4 pad
        every unit's rows to the widest of the stack with -inf columns.
        Few distinct values, so the k-th boundary is usually tied; whether
        ``k`` exceeds the row (``k >= n``: all finite) changes with the
        padding and must not matter either."""
        rng = np.random.default_rng(seed)
        scores = rng.integers(0, 4, size=(5, 9)).astype(float)
        scores[rng.random(size=scores.shape) < 0.3] = -np.inf
        scores[0, :6] = 2.0                     # one crowded boundary
        padded = np.concatenate(
            [scores, np.full((5, pad), -np.inf)], axis=1)
        mask = top_k_mask(padded, k)
        np.testing.assert_array_equal(mask[:, :9], top_k_mask(scores, k))
        assert not mask[:, 9:].any()
