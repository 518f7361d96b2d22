"""Tiled prefill equivalence: streaming key tiles == one tile over the span.

The kernel's key tile (``_SLAB_ELEMS // n_new`` columns, forced here
through the ``key_tile`` fixture) only bounds its working set: keys/signs
stream tile by tile and each tile's compacted survivors merge into per-row
top-k pools, so streaming must reproduce the single-tile run's
*selections exactly* (the merge preserves ascending column order, hence
``top_k_mask``'s lower-index tie-break) and its *outputs to float
round-off* (one final softmax over the same finite terms).  The headline case drives a full 32k-token blockwise prefill
through real KV caches -- the configuration the long-context acceptance
criteria measure.
"""

import numpy as np
import pytest

from repro.core.config import LongSightConfig
from repro.core.hybrid import LongSightAttention
from repro.llm.config import ModelConfig
from repro.llm.kv_cache import KVCache


def _model_config(n_q_heads=2, n_kv_heads=1, head_dim=32):
    return ModelConfig(name="tiny-tiled", vocab_size=64, n_layers=1,
                       n_q_heads=n_q_heads, n_kv_heads=n_kv_heads,
                       head_dim=head_dim, d_ff=4 * n_q_heads * head_dim)


def _blockwise_prefill(att, mc, cfg, k, v, q, block):
    """Prefill through a real KV cache in ``block``-token query blocks,
    returning (outputs per block, selection_capture per block)."""
    n_ctx = k.shape[1]
    cache = KVCache(mc)
    cache.layers[0].reserve(n_ctx)
    att.prepare_cache(cache)
    outs, sels = [], []
    for t0 in range(0, n_ctx, block):
        t1 = min(t0 + block, n_ctx)
        cache.append(0, k[:, t0:t1], v[:, t0:t1])
        att.selection_capture = {}
        outs.append(att.forward_cached(0, q[:, t0:t1], cache))
        sels.append({h: m.copy()
                     for (_, h), m in att.selection_capture.items()})
        att.selection_capture = None
    return outs, sels


def test_tiled_prefill_equivalence_at_32k(key_tile):
    """32k-context blockwise prefill: tiled == single tile at 32k context.

    The tiled run is the *full* 32k blockwise prefill through a real KV
    cache (incremental sign store included).  The single-tile oracle
    materializes (n_new, n_ctx) count and score arrays per head -- the
    working set tiling exists to bound -- so it checks probe blocks
    statelessly, including the final block whose context is the full
    32768 tokens.  Selections must be *exactly* equal; outputs agree to
    round-off.
    """
    n_ctx, block, tile = 32768, 1024, 2048
    # head_dim 64 = one uint64 word per key in the XOR+popcount filter;
    # one head bounds the oracle's cost.
    mc = _model_config(n_q_heads=1, n_kv_heads=1, head_dim=64)
    # threshold 40/64 passes ~3% of candidates — a *selective* filter, the
    # regime survivor compaction pays off most (and the bench measures)
    cfg = LongSightConfig(window=128, n_sink=16, top_k=64, thresholds=40)
    rng = np.random.default_rng(0)
    k = rng.normal(size=(mc.n_kv_heads, n_ctx, mc.head_dim)
                   ).astype(np.float32)
    v = rng.normal(size=(mc.n_kv_heads, n_ctx, mc.head_dim)
                   ).astype(np.float32)
    q = rng.normal(size=(mc.n_q_heads, n_ctx, mc.head_dim)
                   ).astype(np.float32)

    key_tile(tile, block)
    tiled = LongSightAttention(cfg)
    out_t, sel_t = _blockwise_prefill(tiled, mc, cfg, k, v, q, block)
    n_blocks = n_ctx // block
    assert len(out_t) == n_blocks
    # every post-warmup block must actually retrieve sparsely
    assert all(any(m.any() for m in sel.values()) for sel in sel_t[1:])

    key_tile(n_ctx, block)
    mono = LongSightAttention(cfg)
    for i in (n_blocks // 2, n_blocks - 1):  # last: full 32k context
        t0, t1 = i * block, (i + 1) * block
        mono.selection_capture = {}
        out_m = mono.forward(0, q[:, t0:t1], k[:, :t1], v[:, :t1])
        sel_m = {h: m for (_, h), m in mono.selection_capture.items()}
        mono.selection_capture = None
        assert set(sel_m) == set(sel_t[i])
        for h in sel_m:
            assert np.array_equal(sel_m[h], sel_t[i][h]), \
                f"block {i} head {h}: selections diverged"
        np.testing.assert_allclose(out_m, out_t[i], atol=1e-10,
                                   err_msg=f"block {i}")


@pytest.mark.parametrize("tile,block", [(256, 512), (512, 384), (1000, 700)])
def test_tiled_prefill_equivalence_small_geometries(key_tile, tile, block):
    """Ragged tiles/blocks (tile < block, non-power-of-two) stay exact."""
    n_ctx = 4096
    mc = _model_config(n_q_heads=4, n_kv_heads=2, head_dim=16)
    cfg = LongSightConfig(window=48, n_sink=8, top_k=32, thresholds=6)
    rng = np.random.default_rng(42)
    k = rng.normal(size=(2, n_ctx, 16)).astype(np.float32)
    v = rng.normal(size=(2, n_ctx, 16)).astype(np.float32)
    q = rng.normal(size=(4, n_ctx, 16))

    key_tile(n_ctx, block)
    out_m, sel_m = _blockwise_prefill(LongSightAttention(cfg), mc, cfg, k, v,
                                      q, block)
    key_tile(tile, block)
    out_t, sel_t = _blockwise_prefill(LongSightAttention(cfg), mc, cfg, k, v,
                                      q, block)
    for sm, st in zip(sel_m, sel_t):
        for h in sm:
            assert np.array_equal(sm[h], st[h])
    for om, ot in zip(out_m, out_t):
        np.testing.assert_allclose(om, ot, atol=1e-10)


def test_tile_covering_the_span_is_the_single_tile_case(key_tile):
    """A tile at least as long as the sparse span is clipped to it: the
    same single pass (and the same head slab) as the default bound, so
    the stateless entries agree bit for bit."""
    cfg = LongSightConfig(window=32, n_sink=4, top_k=16, thresholds=4)
    rng = np.random.default_rng(7)
    k = rng.normal(size=(1, 512, 16))
    v = rng.normal(size=(1, 512, 16))
    q = rng.normal(size=(2, 512, 16))
    mono = LongSightAttention(cfg).forward(0, q, k, v)
    key_tile(1024, 512)         # 1024 columns > the 476-column span
    np.testing.assert_array_equal(LongSightAttention(cfg).forward(0, q, k, v),
                                  mono)
