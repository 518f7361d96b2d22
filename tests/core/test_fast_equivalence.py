"""Block kernel (``LongSightAttention``) == per-head ``ReferenceAttention``.

The kernel is the production path for every query count; the reference loop
is the correctness oracle.  These tests pin them together: outputs ``np.allclose``,
selected sparse-key sets and ``FilterStats`` counters *exactly* equal —
across GQA group sizes, ITQ on/off, per-head thresholds, tie-heavy scores,
and the short-context (no sparse region) edge case.
"""

import numpy as np
import pytest

from repro.core.config import LongSightConfig
from repro.core.hybrid import LongSightAttention
from repro.core.itq import ItqRotations, random_rotation
from repro.core.metrics import FilterStats
from repro.core.reference import ReferenceAttention
from repro.llm.config import ModelConfig
from repro.llm.kv_cache import KVCache
from tests.conftest import TINY


def _qkv(rng, n_q_heads, n_kv_heads, n_new, n_ctx, head_dim):
    q = rng.normal(size=(n_q_heads, n_new, head_dim))
    k = rng.normal(size=(n_kv_heads, n_ctx, head_dim))
    v = rng.normal(size=(n_kv_heads, n_ctx, head_dim))
    return q, k, v


def _rotation_bank(n_layers, n_kv_heads, head_dim, seed=0):
    bank = ItqRotations(n_layers, n_kv_heads, head_dim)
    for layer in range(n_layers):
        for head in range(n_kv_heads):
            bank.set(layer, head,
                     random_rotation(head_dim, seed + 13 * layer + head))
    return bank


def _compare(config, q, k, v, rotations=None, n_layers=1):
    """Run both paths; assert outputs/selections/stats agree."""
    n_q_heads = q.shape[0]
    n_kv_heads = k.shape[0]
    results = {}
    for fast, cls in ((False, ReferenceAttention),
                      (True, LongSightAttention)):
        stats = FilterStats(n_layers, n_kv_heads)
        backend = cls(config, rotations=rotations, stats=stats)
        backend.selection_capture = {}
        out = backend.forward(0, q, k, v)
        results[fast] = (out, backend.selection_capture, stats)
    out_ref, sel_ref, stats_ref = results[False]
    out_fast, sel_fast, stats_fast = results[True]
    np.testing.assert_allclose(out_fast, out_ref, atol=1e-12)
    assert set(sel_fast) == set(sel_ref)
    for key in sel_ref:
        np.testing.assert_array_equal(sel_fast[key], sel_ref[key])
    np.testing.assert_array_equal(stats_fast.candidates, stats_ref.candidates)
    np.testing.assert_array_equal(stats_fast.passed, stats_ref.passed)
    np.testing.assert_array_equal(stats_fast.retrieved, stats_ref.retrieved)
    np.testing.assert_array_equal(stats_fast.queries, stats_ref.queries)
    return out_ref


@pytest.mark.parametrize("n_q_heads,n_kv_heads", [(4, 4), (4, 2), (8, 2),
                                                  (4, 1)])
def test_gqa_group_sizes(rng, n_q_heads, n_kv_heads):
    d = 16
    q, k, v = _qkv(rng, n_q_heads, n_kv_heads, 5, 64, d)
    config = LongSightConfig(window=8, n_sink=2, top_k=6, thresholds=d // 2)
    _compare(config, q, k, v)


@pytest.mark.parametrize("use_itq", [False, True])
def test_itq_on_off(rng, use_itq):
    d = 16
    n_kv = 2
    q, k, v = _qkv(rng, 4, n_kv, 3, 48, d)
    rotations = _rotation_bank(1, n_kv, d) if use_itq else None
    config = LongSightConfig(window=6, n_sink=2, top_k=4,
                             thresholds=d // 2, use_itq=use_itq)
    _compare(config, q, k, v, rotations=rotations)


def test_per_kv_head_threshold_arrays(rng):
    d = 16
    q, k, v = _qkv(rng, 4, 2, 4, 50, d)
    thresholds = np.array([[d // 4, d]])  # one open head, one choked head
    config = LongSightConfig(window=6, n_sink=1, top_k=8,
                             thresholds=thresholds)
    _compare(config, q, k, v)


def test_per_q_head_thresholds(rng):
    d = 16
    q, k, v = _qkv(rng, 4, 2, 4, 50, d)
    thresholds = np.array([[d // 4, d // 2, 3 * d // 4, d]])
    config = LongSightConfig(window=6, n_sink=1, top_k=8,
                             thresholds=thresholds,
                             per_q_head_thresholds=True)
    # Per-query-head stats resolution (the granularity ablation setup).
    stats_ref = FilterStats(1, 4)
    stats_fast = FilterStats(1, 4)
    ref = ReferenceAttention(config, stats=stats_ref)
    fast = LongSightAttention(config, stats=stats_fast)
    np.testing.assert_allclose(fast.forward(0, q, k, v),
                               ref.forward(0, q, k, v), atol=1e-12)
    np.testing.assert_array_equal(stats_fast.passed, stats_ref.passed)
    np.testing.assert_array_equal(stats_fast.retrieved, stats_ref.retrieved)


def test_tie_heavy_scores(rng):
    """Quantized q/k produce massive score ties; tie-breaking must agree."""
    d = 8
    n_ctx = 60
    q = rng.integers(-1, 2, size=(4, 3, d)).astype(float)
    k = rng.integers(-1, 2, size=(2, n_ctx, d)).astype(float)
    v = rng.normal(size=(2, n_ctx, d))
    config = LongSightConfig(window=4, n_sink=1, top_k=5, thresholds=d // 2)
    _compare(config, q, k, v)


def test_short_context_no_sparse_region(rng):
    """Window covers the whole context: the sparse stage must not run."""
    d = 16
    q, k, v = _qkv(rng, 4, 2, 3, 10, d)
    config = LongSightConfig(window=32, n_sink=2, top_k=4, thresholds=d // 2)
    out = _compare(config, q, k, v)
    stats = FilterStats(1, 2)
    backend = LongSightAttention(config, stats=stats)
    backend.forward(0, q, k, v)
    assert stats.candidates.sum() == 0
    assert np.isfinite(out).all()


def test_top_k_zero_and_top_k_covering(rng):
    d = 16
    q, k, v = _qkv(rng, 4, 2, 4, 40, d)
    for top_k in (0, 1, 40):
        config = LongSightConfig(window=4, n_sink=1, top_k=top_k, thresholds=0)
        _compare(config, q, k, v)


@pytest.mark.parametrize("use_itq", [False, True])
def test_large_query_block_float_concordance(rng, use_itq):
    """The kernel's packed XOR+popcount filter must agree with the
    reference's float concordance on a prefill-sized block exactly like on
    a decode-sized one."""
    d = 16
    n_kv = 2
    q, k, v = _qkv(rng, 4, n_kv, 40, 120, d)
    rotations = _rotation_bank(1, n_kv, d) if use_itq else None
    config = LongSightConfig(window=8, n_sink=2, top_k=6,
                             thresholds=d // 2, use_itq=use_itq)
    _compare(config, q, k, v, rotations=rotations)


def test_cached_large_block_unpacks_sign_store(rng):
    """Prefill-sized cached forward filters on the packed sign store
    directly rather than re-extracting signs from the keys."""
    d = TINY.head_dim
    config = LongSightConfig(window=6, n_sink=2, top_k=4, thresholds=d // 2)
    cache = KVCache(TINY)
    backend = LongSightAttention(config)
    backend.prepare_cache(cache)
    k = rng.normal(size=(TINY.n_kv_heads, 96, d))
    cache.append(0, k, k)
    q = rng.normal(size=(TINY.n_q_heads, 48, d))
    cached = backend.forward_cached(0, q, cache)
    ref = ReferenceAttention(config).forward(
        0, q, cache.layers[0].keys, cache.layers[0].values)
    np.testing.assert_allclose(cached, ref, atol=1e-12)


def test_forward_cached_consumes_sign_cache(rng):
    """The cached path (packed sign store) == uncached fast == reference."""
    d = TINY.head_dim
    rotations = _rotation_bank(TINY.n_layers, TINY.n_kv_heads, d)
    config = LongSightConfig(window=6, n_sink=2, top_k=4,
                             thresholds=d // 2, use_itq=True)
    cache = KVCache(TINY)
    backend = LongSightAttention(config, rotations=rotations)
    backend.prepare_cache(cache)
    assert cache.sign_cache_enabled
    for n in (20, 25, 5):  # uneven incremental appends, 50 tokens total
        k = rng.normal(size=(TINY.n_kv_heads, n, d))
        for layer in range(TINY.n_layers):
            cache.append(layer, k, k)
    q = rng.normal(size=(TINY.n_q_heads, 1, d))
    for layer in range(TINY.n_layers):
        cached = backend.forward_cached(layer, q, cache)
        uncached = backend.forward(layer, q, cache.layers[layer].keys,
                                   cache.layers[layer].values)
        ref = ReferenceAttention(config, rotations=rotations).forward(
            layer, q, cache.layers[layer].keys, cache.layers[layer].values)
        np.testing.assert_allclose(cached, uncached, atol=1e-12)
        np.testing.assert_allclose(cached, ref, atol=1e-12)


def test_incompatible_sign_cache_falls_back(rng):
    """A sign cache built without rotations must not be consumed by an
    ITQ-enabled backend (and vice versa) — outputs must still be correct."""
    d = 16
    config_plain = LongSightConfig(window=4, n_sink=1, top_k=4,
                                   thresholds=d // 2)
    small = ModelConfig(name="eq-test", vocab_size=8, n_layers=1,
                        n_q_heads=4, n_kv_heads=2, head_dim=d, d_ff=8)
    cache = KVCache(small)
    rotations = _rotation_bank(1, 2, d)
    cache.enable_sign_cache(rotations)  # rotated store...
    k = rng.normal(size=(2, 30, d))
    cache.append(0, k, k)
    q = rng.normal(size=(4, 1, d))
    backend = LongSightAttention(config_plain)  # ...but plain-sign backend
    out = backend.forward_cached(0, q, cache)
    ref = ReferenceAttention(config_plain).forward(
        0, q, cache.layers[0].keys, cache.layers[0].values)
    np.testing.assert_allclose(out, ref, atol=1e-12)


def test_model_level_equivalence(rng):
    """Full transformer forward with fast vs reference hybrid backends."""
    from repro.llm.model import Transformer

    model = Transformer(TINY, seed=3)
    tokens = rng.integers(0, TINY.vocab_size, size=80)
    config = LongSightConfig(window=8, n_sink=2, top_k=4,
                             thresholds=TINY.head_dim // 2)
    fast = model.forward_full(tokens, backend=LongSightAttention(config))
    ref = model.forward_full(
        tokens, backend=ReferenceAttention(config))
    np.testing.assert_allclose(fast, ref, atol=1e-10)


def test_supervised_offload_equivalence(rng):
    """The zero-fault supervised device path joins the equivalence chain:
    same outputs, selected-key sets, and FilterStats as the unsupervised
    device backend, which in turn matches the software kernel."""
    from repro.drex.backend import DrexOffloadBackend
    from repro.llm.model import Transformer
    from repro.system.faults import FaultPlan
    from repro.system.supervisor import SupervisedOffloadBackend

    model = Transformer(TINY, seed=3)
    tokens = rng.integers(0, TINY.vocab_size, size=80)
    config = LongSightConfig(window=8, n_sink=2, top_k=4,
                             thresholds=TINY.head_dim // 2)
    results = {}
    for name, backend in (
            ("plain", DrexOffloadBackend(TINY, config, flush_granularity=1)),
            ("supervised", SupervisedOffloadBackend(
                TINY, config, plan=FaultPlan.none(), flush_granularity=1))):
        stats = FilterStats(TINY.n_layers, TINY.n_kv_heads)
        backend.device.stats = stats
        backend.selection_capture = {}
        out = model.forward_full(tokens, backend=backend, block_size=16)
        results[name] = (out, backend.selection_capture, stats)
    out_plain, sel_plain, stats_plain = results["plain"]
    out_sup, sel_sup, stats_sup = results["supervised"]
    np.testing.assert_array_equal(out_sup, out_plain)
    assert set(sel_sup) == set(sel_plain)
    for key in sel_plain:
        np.testing.assert_array_equal(sel_sup[key], sel_plain[key])
    for field in ("candidates", "passed", "retrieved", "queries"):
        np.testing.assert_array_equal(getattr(stats_sup, field),
                                      getattr(stats_plain, field))
    # And the device path tracks the software kernel.
    software = model.forward_full(tokens, backend=LongSightAttention(config),
                                  block_size=16)
    np.testing.assert_allclose(out_sup, software, atol=1e-10)
