"""Microbenchmarks of the core kernels (pytest-benchmark timings).

These are the operations a production port would optimize first; the
figure-level benchmarks above time whole experiments instead.
"""

import numpy as np
import pytest

from repro.core.config import LongSightConfig
from repro.core.hybrid import LongSightAttention
from repro.core.itq import learn_itq_rotation
from repro.core.scf import concordance, concordance_packed, pack_signs
from repro.core.sparse import sparse_retrieve
from repro.core.topk import top_k_mask
from repro.drex.backend import DrexOffloadBackend
from repro.llm.config import ModelConfig
from repro.llm.kv_cache import KVCache

RNG = np.random.default_rng(7)
D = 64
N_KEYS = 8192
KEYS = RNG.normal(size=(N_KEYS, D))
QUERIES = RNG.normal(size=(16, D))
SCORES = RNG.normal(size=(64, N_KEYS))


def test_bench_concordance_float(benchmark):
    result = benchmark(concordance, QUERIES, KEYS)
    assert result.shape == (16, N_KEYS)


def test_bench_concordance_packed(benchmark):
    qp, kp = pack_signs(QUERIES), pack_signs(KEYS)
    result = benchmark(concordance_packed, qp, kp, D)
    assert result.shape == (16, N_KEYS)


def test_bench_pack_signs(benchmark):
    packed = benchmark(pack_signs, KEYS)
    assert packed.shape == (N_KEYS, D // 8)


def test_bench_top_k_mask(benchmark):
    mask = benchmark(top_k_mask, SCORES, 128)
    assert mask.sum() == 64 * 128


def test_bench_sparse_retrieve(benchmark):
    result = benchmark(sparse_retrieve, QUERIES[0], KEYS, 33, 128)
    assert result.n_retrieved <= 128


def test_bench_itq_learning(benchmark):
    sample = RNG.normal(size=(1024, D)) + 1.0
    rotation = benchmark.pedantic(
        lambda: learn_itq_rotation(sample, n_iter=25), rounds=1, iterations=1)
    assert rotation.shape == (D, D)


def test_bench_drex_offload(benchmark):
    """One offload decode row at a 4k context: the kernel's decode row,
    the supervisor and the device pricing the offload from its
    survivors."""
    model = ModelConfig(name="bench-drex", vocab_size=64, n_layers=1,
                        n_q_heads=16, n_kv_heads=4, head_dim=D, d_ff=64)
    config = LongSightConfig(window=128, n_sink=16, top_k=128, thresholds=33)
    backend = DrexOffloadBackend(model, config)
    cache = KVCache(model)
    backend.prepare_cache(cache)
    cache.append(0, RNG.normal(size=(4, 4096, D)),
                 RNG.normal(size=(4, 4096, D)))
    q = RNG.normal(size=(16, 1, D))
    out = benchmark(backend.forward_cached, 0, q, cache)
    assert out.shape == q.shape
    assert backend.n_offloads > 0


def test_bench_hybrid_attention_block(benchmark):
    config = LongSightConfig(window=128, n_sink=16, top_k=128, thresholds=33)
    backend = LongSightAttention(config)
    q = RNG.normal(size=(16, 64, D))     # 64-query block
    k = RNG.normal(size=(4, 4096, D))
    v = RNG.normal(size=(4, 4096, D))
    out = benchmark(backend.forward, 0, q, k, v)
    assert out.shape == q.shape
