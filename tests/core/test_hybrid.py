"""Hybrid attention backend: dense-equivalence cases, masks, stats."""

import dataclasses
import re

import numpy as np
import pytest

from repro.core.config import LongSightConfig
from repro.core.hybrid import LongSightAttention, SlidingWindowAttention
from repro.core.itq import fit_itq
from repro.core.metrics import FilterStats
from repro.core.reference import ReferenceAttention, _region_masks
from repro.llm.config import LLAMA_SIM_SMALL
from repro.llm.kv_cache import KVCache
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

    def test_a_config_is_a_frozen_value(self):
        per_layer = np.full((2, 2), 3)
        a = LongSightConfig(thresholds=per_layer)
        b = LongSightConfig(thresholds=per_layer.astype(float))
        per_layer[0, 0] = 9                  # the config holds its own copy
        assert a == b and hash(a) == hash(b) and a is not b
        assert LongSightConfig(thresholds=3) == LongSightConfig(thresholds=3.0)
        assert a != a.replace(thresholds=4) and a != a.replace(top_k=5)
        with pytest.raises(dataclasses.FrozenInstanceError):
            a.top_k = 5
        with pytest.raises(ValueError, match="read-only"):
            a.thresholds[0, 0] = 9


# LLAMA_SIM_SMALL has 3 layers and 2 KV heads: a shape with one axis of
# length L or H tells the two axes apart (TINY has 2 and 2).
SMALL_LS = LongSightConfig(window=8, n_sink=4, top_k=8)


@pytest.fixture(scope="module")
def small():
    model = Transformer(LLAMA_SIM_SMALL, seed=0)
    return model, np.random.default_rng(1).integers(
        0, LLAMA_SIM_SMALL.vocab_size, size=48)


@pytest.mark.parametrize("short", [
    [[6.0, 9.0]], [[6.0], [7.0], [8.0]], [6.0, 9.0], 6.0],
    ids=["1xH", "Lx1", "H", "scalar"])
def test_thresholds_broadcast_to_every_layer_and_head(small, short):
    """A threshold array of a broadcastable shape serves every (layer, KV
    head) what its full ``(n_layers, n_kv_heads)`` broadcast serves."""
    model, tokens = small
    full = np.broadcast_to(short, (3, 2))
    config = SMALL_LS.replace(thresholds=short)
    for layer in range(3):
        for kv_head in range(2):
            assert config.threshold_for(layer, kv_head) == full[layer,
                                                                kv_head]
    stats = FilterStats(3, 2)
    out = model.forward_full(tokens, LongSightAttention(config, stats=stats))
    want_stats = FilterStats(3, 2)
    want = model.forward_full(tokens, LongSightAttention(
        SMALL_LS.replace(thresholds=full.copy()), stats=want_stats))
    np.testing.assert_array_equal(out, want)
    np.testing.assert_array_equal(stats.passed, want_stats.passed)


@pytest.mark.parametrize("shape", [(3,), (2, 2), (3, 3), (1, 1, 1)])
def test_thresholds_that_do_not_broadcast_fail_before_any_row(small, shape):
    """A length-L vector would index heads by layer; a shape that does not
    broadcast to (3, 2) is a ``ValueError`` naming it, and prefill has
    appended no row when it is raised."""
    model, tokens = small
    cache = KVCache(LLAMA_SIM_SMALL)
    with pytest.raises(ValueError, match=re.escape(str(shape))):
        model.prefill(tokens, cache, backend=LongSightAttention(
            SMALL_LS.replace(thresholds=np.full(shape, 6.0))))
    assert len(cache) == 0


@pytest.mark.parametrize("kernel", [LongSightAttention, ReferenceAttention])
def test_stateless_forward_checks_the_head_axis(rng, kernel):
    """The stateless entry point has no model config, so it checks the
    thresholds' head axis against the arrays it is given before serving
    any row: three thresholds on 2 KV heads (4 query heads) raise
    ``check_model``'s error, a per-query-head vector is checked against
    the query heads, and a vector that broadcasts serves."""
    q = rng.normal(size=(4, 3, 8))
    k = rng.normal(size=(2, 40, 8))
    v = rng.normal(size=(2, 40, 8))
    config = LongSightConfig(window=4, n_sink=2, top_k=5)
    with pytest.raises(ValueError, match=re.escape("(3,)")):
        kernel(config.replace(thresholds=[1, 9, 30])).forward(2, q, k, v)
    with pytest.raises(ValueError, match=re.escape("(2,)")):
        kernel(config.replace(thresholds=[1, 9],
                              per_q_head_thresholds=True)).forward(2, q, k, v)
    for ok in (config.replace(thresholds=[1, 9]),
               config.replace(thresholds=[1, 9, 30, 4],
                              per_q_head_thresholds=True)):
        assert np.isfinite(kernel(ok).forward(2, q, k, v)).all()


@pytest.mark.parametrize("kernel", [LongSightAttention, ReferenceAttention])
@pytest.mark.parametrize("n_q, n_v", [(40, 30), (50, 40)],
                         ids=["values_shorter_than_keys",
                              "more_queries_than_context"])
def test_stateless_forward_checks_the_array_shapes(rng, kernel, n_q, n_v):
    """Values shorter than the keys (the prefill band would read past
    them) and more query rows than context rows (those rows would see no
    key and come out NaN) are a ``ValueError`` on both kernels, raised
    before any row is served."""
    config = LongSightConfig(window=8, n_sink=4, top_k=12, thresholds=3)
    q = rng.normal(size=(4, n_q, 8))
    k = rng.normal(size=(2, 40, 8))
    v = rng.normal(size=(2, n_v, 8))
    with pytest.raises(ValueError, match="values of shape|query rows"):
        kernel(config).forward(2, q, k, v)
