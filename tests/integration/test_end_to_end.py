"""Cross-module integration tests: the whole serving story at tiny scale."""

import numpy as np
import pytest

from repro.core import LongSightConfig, LongSightAttention, FilterStats, fit_itq
from repro.core.tuning import tune_thresholds
from repro.data.synthetic import pg_like
from repro.drex.backend import DrexOffloadBackend
from repro.faults import FaultPlan
from repro.llm.kv_cache import KVCache
from repro.llm.model import Transformer
from repro.llm.perplexity import perplexity
from repro.llm.sampling import generate
from repro.llm.training import train
from tests.conftest import TINY


@pytest.fixture(scope="module")
def trained():
    tokens = pg_like(20000, vocab_size=TINY.vocab_size, seed=0)
    result = train(TINY, tokens, steps=60, batch_size=4, seq_len=96, seed=0)
    return Transformer(TINY, result.weights), tokens


class TestTrainedPipeline:
    def test_training_beats_uniform(self, trained):
        model, tokens = trained
        ppl = perplexity(model, tokens[:512])
        assert ppl < TINY.vocab_size * 0.7  # clearly better than uniform

    def test_sparse_close_to_dense_on_trained_model(self, trained):
        model, tokens = trained
        eval_tokens = tokens[:512]
        dense = perplexity(model, eval_tokens)
        config = LongSightConfig(window=32, n_sink=4, top_k=64,
                                 thresholds=TINY.head_dim // 2)
        sparse = perplexity(model, eval_tokens,
                            backend=LongSightAttention(config))
        assert sparse / dense < 1.30

    def test_tuning_on_trained_model_filters_something(self, trained):
        model, tokens = trained
        eval_tokens = tokens[:384]
        dense = perplexity(model, eval_tokens)
        config = LongSightConfig(window=32, n_sink=4, top_k=32)
        result = tune_thresholds(model, eval_tokens, config, dense,
                                 max_increase=0.10, step=2, max_iterations=5)
        assert result.filter_ratio > 1.0


class TestGenerationWithDrex:
    def test_generation_matches_software_hybrid(self, trained):
        """Autoregressive generation through the functional DReX device
        must match the software hybrid token-for-token."""
        model, tokens = trained
        prompt = tokens[:60]
        config = LongSightConfig(window=8, n_sink=4, top_k=8, thresholds=4)
        sw = generate(model, prompt, n_new=10,
                      backend=LongSightAttention(config))
        hw = generate(model, prompt, n_new=10,
                      backend=DrexOffloadBackend(TINY, config))
        np.testing.assert_array_equal(sw, hw)

    def test_generation_with_itq_and_group_flush(self, trained):
        """With ITQ signs, and with flushes deferred under capacity
        pressure (the staged window grows), generation through the device
        completes and offloads; healthy, it is the software hybrid's."""
        model, tokens = trained
        rotations = fit_itq(model, tokens[:64], n_iter=3)
        config = LongSightConfig(window=8, n_sink=4, top_k=16, thresholds=5,
                                 use_itq=True)
        sw = generate(model, tokens[:80], n_new=6,
                      backend=LongSightAttention(config, rotations=rotations))
        hw = generate(model, tokens[:80], n_new=6,
                      backend=DrexOffloadBackend(TINY, config,
                                                 rotations=rotations))
        np.testing.assert_array_equal(sw, hw)
        backend = DrexOffloadBackend(
            TINY, config, rotations=rotations,
            plan=FaultPlan(capacity_pressure_rate=0.5, seed=1))
        out = generate(model, tokens[:80], n_new=6, backend=backend)
        assert out.shape == (6,)
        assert backend.n_offloads > 0
        assert backend.supervisor.stats.flush_deferrals > 0


class TestMultiUserDevice:
    def test_users_are_isolated(self, trained, rng):
        """Two users' slice chains, prices and sign stores must not bleed
        into each other."""
        from repro.drex.descriptors import RequestDescriptor
        from repro.drex.device import DrexDevice

        def request(uid, n_keys):
            return RequestDescriptor(
                uid=uid, layer=0, top_k=40,
                queries=np.ones((TINY.n_q_heads, TINY.head_dim)),
                passed=np.full(TINY.n_q_heads, n_keys // 2),
                survivors=np.ones((TINY.n_kv_heads, n_keys), dtype=bool))

        shared = DrexDevice(TINY.n_layers, TINY.n_kv_heads, TINY.n_q_heads,
                            TINY.head_dim)
        alone = DrexDevice(TINY.n_layers, TINY.n_kv_heads, TINY.n_q_heads,
                           TINY.head_dim)
        for device in (shared, alone):
            device.register_user(0)
        shared.register_user(1)
        for head in range(TINY.n_kv_heads):
            shared.write_kv(0, 0, head, 40)
            shared.write_kv(1, 0, head, 400)
            alone.write_kv(0, 0, head, 40)
        assert shared.context_length(0, 0, 0) == 40
        assert shared.context_length(1, 0, 0) == 400
        assert shared.execute(request(0, 40)).latency \
            == alone.execute(request(0, 40)).latency
        shared.corrupt_kso(1, 0, 0, rng, n_bits=3)
        assert shared.corrupted_ksos(0, 0) == []
        assert shared.corrupted_ksos(1, 0) == [0]

    def test_eviction_frees_capacity_for_new_user(self, rng):
        from repro.drex.device import DrexDevice

        device = DrexDevice(TINY.n_layers, TINY.n_kv_heads, TINY.n_q_heads,
                            TINY.head_dim)
        device.register_user(0)
        for head in range(TINY.n_kv_heads):
            device.write_kv(0, 0, head, 5000)
        used = device.allocator.bytes_used
        device.evict_user(0)
        device.register_user(2)
        for head in range(TINY.n_kv_heads):
            device.write_kv(2, 0, head, 5000)
        assert device.allocator.bytes_used == used


class TestCacheBackendInterplay:
    def test_prefill_then_decode_with_hybrid(self, trained):
        model, tokens = trained
        config = LongSightConfig(window=16, n_sink=4, top_k=16, thresholds=4)
        backend = LongSightAttention(config)
        cache = KVCache(TINY)
        model.prefill(tokens[:50], cache, backend=backend)
        logits = model.decode_step(int(tokens[50]), cache, backend=backend)
        assert np.isfinite(logits).all()
        assert len(cache) == 51
