"""Unit tests for the functional ops."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.llm import ops

finite_floats = st.floats(min_value=-50, max_value=50, allow_nan=False)


class TestSoftmax:
    def test_rows_sum_to_one(self, rng):
        x = rng.normal(size=(4, 7))
        y = ops.softmax(x)
        np.testing.assert_allclose(y.sum(axis=-1), 1.0)
        assert (y >= 0).all()

    def test_shift_invariance(self, rng):
        x = rng.normal(size=(3, 5))
        np.testing.assert_allclose(ops.softmax(x), ops.softmax(x + 100.0))

    def test_handles_minus_inf(self):
        x = np.array([0.0, -np.inf, 1.0])
        y = ops.softmax(x)
        assert y[1] == 0.0
        np.testing.assert_allclose(y.sum(), 1.0)

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_bits_equal_the_formula_on_masked_rows(self, rng, dtype):
        """Scores whose exponential underflows are set to 0, not computed:
        the result keeps ``exp(x - max) / sum``'s bits, on rows masked
        with -inf, scores far below the row's max, NaN and +inf."""
        x = rng.normal(size=(6, 5, 300)) * np.array([1, 30, 300, 3000,
                                                     1, 1])[:, None, None]
        x[rng.random(x.shape) < 0.6] = -np.inf
        x[..., 0] = 0.0
        x[4, 0, 1], x[4, 1, 1], x[5] = np.nan, np.inf, -np.inf
        x = x.astype(dtype)
        with np.errstate(invalid="ignore"):
            shifted = x - x.max(axis=-1, keepdims=True)
            want = np.exp(shifted) / np.exp(shifted).sum(axis=-1,
                                                          keepdims=True)
            got = ops.softmax(x)
        assert got.dtype == want.dtype
        np.testing.assert_array_equal(got.view(np.uint8),
                                      want.view(np.uint8))

    @given(hnp.arrays(np.float64, (3, 6), elements=finite_floats))
    @settings(max_examples=25, deadline=None)
    def test_log_softmax_consistent(self, x):
        np.testing.assert_allclose(np.exp(ops.log_softmax(x)),
                                   ops.softmax(x), atol=1e-12)


class TestRmsNorm:
    def test_unit_rms(self, rng):
        x = rng.normal(size=(5, 16)) * 3.0
        y = ops.rms_norm(x, np.ones(16), eps=0.0)
        np.testing.assert_allclose(np.sqrt(np.mean(y * y, axis=-1)), 1.0)

    def test_scale_applied(self, rng):
        x = rng.normal(size=(2, 8))
        w = rng.normal(size=8)
        np.testing.assert_allclose(ops.rms_norm(x, w),
                                   ops.rms_norm(x, np.ones(8)) * w)


class TestCausalMask:
    def test_prefill_is_lower_triangular(self):
        m = ops.causal_mask(4, 4)
        assert np.array_equal(m, np.tril(np.ones((4, 4), dtype=bool)))

    def test_decode_sees_everything(self):
        m = ops.causal_mask(1, 7)
        assert m.all()

    def test_partial_block(self):
        m = ops.causal_mask(2, 5)
        assert m[0].sum() == 4 and m[1].sum() == 5

    def test_rejects_more_queries_than_keys(self):
        with pytest.raises(ValueError):
            ops.causal_mask(5, 3)


class TestCrossEntropy:
    def test_perfect_prediction_near_zero(self):
        logits = np.full((3, 4), -100.0)
        targets = np.array([1, 2, 0])
        logits[np.arange(3), targets] = 100.0
        assert ops.cross_entropy(logits, targets) < 1e-6

    def test_uniform_is_log_vocab(self):
        logits = np.zeros((5, 8))
        targets = np.arange(5)
        assert np.isclose(ops.cross_entropy(logits, targets), np.log(8))


class TestSwiglu:
    def test_matches_composition(self, rng):
        x = rng.normal(size=(3, 6))
        wg = rng.normal(size=(6, 10))
        wu = rng.normal(size=(6, 10))
        wd = rng.normal(size=(10, 6))
        expected = (ops.silu(x @ wg) * (x @ wu)) @ wd
        np.testing.assert_allclose(ops.swiglu(x, wg, wu, wd), expected)

    def test_silu_fixed_points(self):
        assert ops.silu(np.array([0.0]))[0] == 0.0
        assert np.isclose(ops.silu(np.array([100.0]))[0], 100.0)
