"""Hybrid attention backend: dense-equivalence cases, masks, stats."""

import numpy as np
import pytest

from repro.core.config import LongSightConfig
from repro.core.hybrid import LongSightAttention, SlidingWindowAttention
from repro.core.itq import fit_itq
from repro.core.metrics import FilterStats
from repro.core.reference import _region_masks
from repro.llm.model import DenseBackend, Transformer
from tests.conftest import TINY


@pytest.fixture
def model():
    return Transformer(TINY, seed=3)


@pytest.fixture
def tokens(rng):
    return rng.integers(0, TINY.vocab_size, size=80)


class TestRegionMasks:
    def test_partition_of_causal(self):
        dense, sparse = _region_masks(np.arange(20, 25), 25, n_sink=3,
                                      window=4)
        causal = np.arange(25)[None, :] <= np.arange(20, 25)[:, None]
        assert not (dense & sparse).any()
        np.testing.assert_array_equal(dense | sparse, causal)

    def test_window_includes_self(self):
        dense, _ = _region_masks(np.array([10]), 11, n_sink=0, window=1)
        assert dense[0, 10]
        assert dense[0].sum() == 1

    def test_sink_region(self):
        dense, _ = _region_masks(np.array([20]), 21, n_sink=3, window=2)
        assert dense[0, :3].all()
        assert dense[0, 19:].all()
        assert not dense[0, 5]


class TestDenseEquivalence:
    def test_window_covers_context(self, model, tokens):
        dense = model.forward_full(tokens)
        config = LongSightConfig(window=len(tokens) + 1, n_sink=0, top_k=0)
        hybrid = model.forward_full(tokens,
                                    backend=LongSightAttention(config))
        np.testing.assert_array_equal(dense, hybrid)

    def test_threshold_zero_full_k(self, model, tokens):
        dense = model.forward_full(tokens)
        config = LongSightConfig(window=5, n_sink=2, top_k=len(tokens),
                                 thresholds=0)
        hybrid = model.forward_full(tokens,
                                    backend=LongSightAttention(config))
        np.testing.assert_allclose(dense, hybrid, atol=1e-12)

    def test_itq_rotation_preserves_threshold_zero(self, model, tokens, rng):
        """With thresholds 0 ITQ must not change anything (scores are
        rotation-invariant and the filter passes everything)."""
        rotations = fit_itq(model, tokens[:32], n_iter=3)
        base = LongSightConfig(window=5, n_sink=2, top_k=len(tokens),
                               thresholds=0)
        plain = model.forward_full(tokens, backend=LongSightAttention(base))
        itq = model.forward_full(tokens, backend=LongSightAttention(
            base.replace(use_itq=True), rotations=rotations))
        np.testing.assert_allclose(plain, itq, atol=1e-12)


class TestFiltering:
    def test_k_zero_equals_sliding_window(self, model, tokens):
        config = LongSightConfig(window=8, n_sink=4, top_k=0)
        hybrid = model.forward_full(tokens, backend=LongSightAttention(config))
        window = model.forward_full(
            tokens, backend=SlidingWindowAttention(window=8, n_sink=4))
        np.testing.assert_allclose(hybrid, window, atol=1e-12)

    def test_stats_accumulate_consistently(self, model, tokens):
        stats = FilterStats(TINY.n_layers, TINY.n_kv_heads)
        config = LongSightConfig(window=8, n_sink=2, top_k=4,
                                 thresholds=TINY.head_dim // 2)
        model.forward_full(tokens, backend=LongSightAttention(config,
                                                              stats=stats))
        assert (stats.passed <= stats.candidates).all()
        assert (stats.retrieved <= stats.passed).all()
        assert stats.candidates.sum() > 0
        assert stats.filter_ratio >= 1.0

    def test_higher_threshold_retrieves_no_more(self, model, tokens):
        def run(th):
            stats = FilterStats(TINY.n_layers, TINY.n_kv_heads)
            config = LongSightConfig(window=8, n_sink=2, top_k=64,
                                     thresholds=th)
            model.forward_full(tokens,
                               backend=LongSightAttention(config, stats=stats))
            return stats.passed.sum()

        assert run(TINY.head_dim) <= run(TINY.head_dim // 2) <= run(0)

    def test_per_head_thresholds(self, model, tokens):
        thresholds = np.zeros((TINY.n_layers, TINY.n_kv_heads))
        thresholds[0, 0] = TINY.head_dim  # choke one head only
        stats = FilterStats(TINY.n_layers, TINY.n_kv_heads)
        config = LongSightConfig(window=8, n_sink=2, top_k=64,
                                 thresholds=thresholds)
        model.forward_full(tokens,
                           backend=LongSightAttention(config, stats=stats))
        rates = stats.passed / np.maximum(stats.candidates, 1)
        assert rates[0, 0] < 0.2
        assert rates[1, 0] == 1.0

    def test_requires_rotations_for_itq(self):
        with pytest.raises(ValueError):
            LongSightAttention(LongSightConfig(use_itq=True))


class TestSlidingWindow:
    def test_matches_dense_when_window_covers(self, model, tokens):
        dense = model.forward_full(tokens)
        sw = model.forward_full(
            tokens, backend=SlidingWindowAttention(window=len(tokens)))
        np.testing.assert_allclose(dense, sw, atol=1e-12)

    def test_ignores_middle_tokens(self, model, rng):
        """Perturbing a mid-context token (outside sinks+window) must not
        change the last logits under sliding-window attention."""
        tokens = rng.integers(0, TINY.vocab_size, size=60)
        backend = SlidingWindowAttention(window=8, n_sink=2)
        base = model.forward_full(tokens, backend=backend)
        mutated = tokens.copy()
        mutated[30] = (mutated[30] + 1) % TINY.vocab_size
        out = model.forward_full(mutated, backend=backend)
        np.testing.assert_allclose(base[-1], out[-1], atol=1e-12)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            SlidingWindowAttention(window=0)


class TestConfig:
    def test_threshold_resolution(self):
        config = LongSightConfig(thresholds=np.array([[1.0, 2.0], [3.0, 4.0]]))
        assert config.threshold_for(1, 0) == 3.0
        assert LongSightConfig(thresholds=5).threshold_for(0, 1) == 5.0
        assert LongSightConfig(
            thresholds=np.array([7.0, 9.0])).threshold_for(3, 1) == 9.0

    def test_validation(self):
        with pytest.raises(ValueError):
            LongSightConfig(window=0)
        with pytest.raises(ValueError):
            LongSightConfig(top_k=-1)
        with pytest.raises(ValueError):
            LongSightConfig(n_sink=-2)

    def test_replace(self):
        a = LongSightConfig(window=10)
        b = a.replace(top_k=5)
        assert b.window == 10 and b.top_k == 5 and a.top_k != 5
