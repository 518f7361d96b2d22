"""Attention kernel edges: selections == the per-head reference loop.

``LongSightAttention.forward`` filters, scores, *compacts* each row's
survivors, selects on the compacted width and attends over gathered
columns — one query through the decode routine, a block of them through
the prefill kernel, with the same stages 1–4 and the same stage 5.  Every
geometry below must pick exactly the keys
:class:`~repro.core.reference.ReferenceAttention` picks, report the same
``FilterStats`` and agree on outputs to the fast-equivalence tolerance —
for every key tile (forced through the ``key_tile`` fixture), since the
tile only bounds the working set, and on either side of the kernel's slab
(heads stacked per call) and gather (survivor columns vs whole tile)
rules.
"""

import numpy as np
import pytest

from repro.core.config import LongSightConfig
from repro.core.hybrid import LongSightAttention
from repro.core.metrics import FilterStats
from repro.core.scf import concordance
from repro.llm.config import ModelConfig
from repro.llm.kv_cache import KVCache
from repro.serve.paged_kv import PagedKVPool
from tests.conftest import TINY
from tests.core.test_fast_equivalence import _compare, _qkv, _rotation_bank

#: Key tiles forced per test (``key_tile(tile, n_new)``): 0 = the default
#: bound, one tile here; 24 < every block below; 10**6 > every sparse span.
TILES = (0, 24, 10**6)


def _config(**kwargs):
    base = dict(window=16, n_sink=4, top_k=8, thresholds=8)
    base.update(kwargs)
    return LongSightConfig(**base)


@pytest.mark.parametrize("tile", TILES)
@pytest.mark.parametrize("n_new,n_ctx", [(33, 33), (33, 200), (257, 257),
                                         (257, 300), (40, 41)])
def test_ragged_blocks(rng, key_tile, tile, n_new, n_ctx):
    """Block sizes that divide nothing, with and without a past."""
    key_tile(tile, n_new)
    q, k, v = _qkv(rng, 4, 2, n_new, n_ctx, 16)
    _compare(_config(), q, k, v)


@pytest.mark.parametrize("tile", TILES)
def test_context_shorter_than_window(rng, key_tile, tile):
    key_tile(tile, 40)
    q, k, v = _qkv(rng, 4, 2, 40, 40, 16)
    out = _compare(_config(window=64), q, k, v)
    assert np.isfinite(out).all()


@pytest.mark.parametrize("tile", (7, 16, 50))
def test_tile_boundary_splits_causal_triangle(rng, key_tile, tile):
    """Tiles end inside the trailing columns that only later rows may
    select, so the causal cut is applied to partial tile slices."""
    n_new, n_ctx = 64, 160
    key_tile(tile, n_new)
    q, k, v = _qkv(rng, 2, 1, n_new, n_ctx, 16)
    cfg = _config(window=8, n_sink=2, thresholds=0, top_k=200)
    _compare(cfg, q, k, v)
    # top_k >= candidates and threshold 0: every candidate is selected.
    backend = LongSightAttention(cfg)
    backend.selection_capture = {}
    backend.forward(0, q, k, v)
    rows = np.arange(n_ctx - n_new, n_ctx)[:, None]
    cols = np.arange(n_ctx)[None, :]
    expected = (cols >= cfg.n_sink) & (cols <= rows - cfg.window)
    for selected in backend.selection_capture.values():
        np.testing.assert_array_equal(selected, expected)


@pytest.mark.parametrize("tile", TILES)
@pytest.mark.parametrize("top_k", (0, 1, 10**4))
def test_top_k_extremes(rng, key_tile, tile, top_k):
    key_tile(tile, 48)
    q, k, v = _qkv(rng, 4, 2, 48, 120, 16)
    _compare(_config(top_k=top_k), q, k, v)


@pytest.mark.parametrize("tile", TILES)
@pytest.mark.parametrize("threshold", (0, 32))
def test_threshold_extremes(rng, key_tile, tile, threshold):
    """Threshold 0 passes every candidate; threshold ``head_dim`` passes
    none here (32 random sign bits never all agree), leaving empty pools."""
    d = 32
    key_tile(tile, 48)
    q, k, v = _qkv(rng, 4, 2, 48, 150, d)
    stats = FilterStats(1, 2)
    cfg = _config(thresholds=threshold)
    _compare(cfg, q, k, v)
    LongSightAttention(cfg, stats=stats).forward(0, q, k, v)
    if threshold:
        assert stats.passed.sum() == 0 and stats.retrieved.sum() == 0
    else:
        np.testing.assert_array_equal(stats.passed, stats.candidates)


@pytest.mark.parametrize("tile", (0, 16, 33))
def test_duplicate_keys_straddle_tiles(rng, key_tile, tile):
    """Every key occurs four times, ``period`` columns apart, so equal
    scores sit in different tiles and the boundary tie must go to the
    lower column through compaction and the pool merge."""
    d, period = 16, 40
    base = rng.normal(size=(2, period, d))
    k = np.tile(base, (1, 4, 1))
    v = rng.normal(size=(2, 4 * period, d))
    q = rng.normal(size=(4, 48, d))
    key_tile(tile, 48)
    _compare(_config(window=8, n_sink=2, top_k=6, thresholds=0),
             q, k, v)


@pytest.mark.parametrize("tile", TILES)
def test_itq_rotations(rng, key_tile, tile):
    d = 16
    key_tile(tile, 48)
    q, k, v = _qkv(rng, 4, 2, 48, 130, d)
    _compare(_config(use_itq=True), q, k, v,
             rotations=_rotation_bank(1, 2, d))


@pytest.mark.parametrize("tile", TILES)
@pytest.mark.parametrize("use_itq", (False, True))
def test_sign_cache_equals_stateless_entry(rng, key_tile, tile, use_itq):
    """``forward`` (signs packed per tile from the keys) and
    ``forward_cached`` (signs read from the store) are the same kernel."""
    d = 16
    key_tile(tile, 48)
    mc = ModelConfig(name="block-edge", vocab_size=8, n_layers=1,
                     n_q_heads=4, n_kv_heads=2, head_dim=d, d_ff=8)
    q, k, v = _qkv(rng, 4, 2, 48, 130, d)
    rotations = _rotation_bank(1, 2, d) if use_itq else None
    backend = LongSightAttention(_config(use_itq=use_itq),
                                 rotations=rotations)
    cache = KVCache(mc)
    backend.prepare_cache(cache)
    cache.append(0, k.astype(np.float32), v.astype(np.float32))
    kv = cache.layers[0]
    np.testing.assert_array_equal(
        backend.forward_cached(0, q, cache),
        backend.forward(0, q, kv.keys, kv.values))


@pytest.mark.parametrize("tile", TILES)
def test_float16_kv(rng, key_tile, tile):
    key_tile(tile, 48)
    q, k, v = _qkv(rng, 4, 2, 48, 130, 16)
    _compare(_config(), q, k.astype(np.float16), v.astype(np.float16))


# -- one kernel for every query count ---------------------------------------

@pytest.mark.parametrize("tile", TILES)
@pytest.mark.parametrize("n_new", (1, 2, 31, 32, 33))
@pytest.mark.parametrize("n_q_heads,n_kv_heads", [(2, 2), (8, 2)])
def test_decode_sized_blocks(rng, key_tile, tile, n_new, n_q_heads,
                             n_kv_heads):
    """One query, a few, and both sides of the former 32-query path split,
    with GQA groups of 1 (nothing to stack) and 4 (one slab per KV head)."""
    key_tile(tile, n_new)
    q, k, v = _qkv(rng, n_q_heads, n_kv_heads, n_new, 200, 16)
    _compare(_config(), q, k, v)


@pytest.mark.parametrize("tile", TILES)
@pytest.mark.parametrize("n_new", (1, 33))
@pytest.mark.parametrize("d", (16, 248, 256))
def test_thresholds_differ_inside_one_slab(rng, key_tile, tile, n_new, d):
    """The four heads of one stacked slab filter at 0 (everything passes),
    ``d / 2``, ``d`` (all signs agree: only the planted key) and ``d + 1``
    (nothing can pass).  ``d = 248`` is the widest uint8 count, ``d = 256``
    counts in uint16."""
    n_ctx = 150
    key_tile(tile, n_new)
    q, k, v = _qkv(rng, 4, 1, n_new, n_ctx, d)
    k[0, 10] = q[2, 0]              # full concordance with head 2, row 0
    cfg = _config(thresholds=np.array([[0, d // 2, d, d + 1]]),
                  per_q_head_thresholds=True)
    _compare(cfg, q, k, v)
    stats = FilterStats(1, 4)
    LongSightAttention(cfg, stats=stats).forward(0, q, k, v)
    assert stats.passed[0, 0] == stats.candidates[0, 0] > 0
    assert 0 < stats.passed[0, 1] < stats.candidates[0, 1]
    assert stats.passed[0, 2] >= 1
    assert stats.passed[0, 3] == 0


@pytest.mark.parametrize("tile", (0, 40, 10**6))
@pytest.mark.parametrize("n_new", (1, 3))
@pytest.mark.parametrize("dense_first", (True, False))
def test_duplicates_straddle_gathered_and_whole_tiles(rng, key_tile, tile,
                                                      n_new, dense_first):
    """Half-open gather rule, both sides in one context: a 40-key region
    whose keys all pass (scored as a whole tile) beside an 80-key region
    where few do (scored on gathered survivor columns).  The best key of
    every query sits in both regions, so with ``top_k = 1`` the two copies
    tie and the lower column must win — which needs the gathered and the
    whole-tile GEMM to give one key the same score bits."""
    d, n_sink, window = 16, 2, 8
    signs = np.where(rng.random(d) < 0.5, -1.0, 1.0)
    aligned = np.abs(rng.normal(size=(1, 40, d))) * signs
    aligned[0, 3] *= 10.0                           # every query's best key
    loose = rng.normal(size=(1, 80, d))
    loose[0, 17] = aligned[0, 3]
    body = [aligned, loose] if dense_first else [loose, aligned]
    k = np.concatenate([rng.normal(size=(1, n_sink, d))] + body
                       + [rng.normal(size=(1, window + n_new - 1, d))],
                       axis=1)
    v = rng.normal(size=k.shape)
    q = np.abs(rng.normal(size=(4, n_new, d))) * signs
    q[:, :, 0] *= -1.0                              # concordance 15 of 16
    key_tile(tile, n_new)
    cfg = _config(window=window, n_sink=n_sink, top_k=1, thresholds=12)
    # The premise: per 40-column tile, the union of passing columns over
    # the slab's rows is everything in one region, under half in the other.
    kept = (concordance(q.reshape(-1, d), k[0]) >= 12).any(axis=0)
    lo = n_sink + (0 if dense_first else 80)
    assert kept[lo: lo + 40].all()
    loose_lo = n_sink + (40 if dense_first else 0)
    for t0 in (loose_lo, loose_lo + 40):
        assert 0 < kept[t0: t0 + 40].sum() < 20
    _compare(cfg, q, k, v)
    backend = LongSightAttention(cfg)
    backend.selection_capture = {}
    backend.forward(0, q, k, v)
    first = n_sink + (3 if dense_first else 17)     # the lower-column copy
    for selected in backend.selection_capture.values():
        np.testing.assert_array_equal(np.flatnonzero(selected[0]), [first])


def test_paged_cache_after_prefix_attach_decodes_like_plain_cache(rng):
    """Decode over non-contiguous shared pages == decode over a plain
    ``KVCache`` holding the same keys and values, bit for bit."""
    d = TINY.head_dim
    backend = LongSightAttention(LongSightConfig(
        window=8, n_sink=2, top_k=4, thresholds=d // 2))
    pool = PagedKVPool(TINY, n_blocks=32, block_tokens=4,
                       prefix_caching=True)
    tokens = np.arange(40)

    def fill(cache, start, stop):
        for layer in range(TINY.n_layers):
            kv = rng.normal(size=(2, TINY.n_kv_heads, stop - start, d))
            cache.append(layer, kv[0].astype(np.float32),
                         kv[1].astype(np.float32))

    owner = pool.new_cache()
    backend.prepare_cache(owner)
    fill(owner, 0, 40)
    owner.publish_prefix(tokens)
    squatter = pool.new_cache()                 # takes the next free blocks
    fill(squatter, 0, 8)
    paged = pool.new_cache()
    attached = paged.attach_prefix(np.concatenate([tokens[:32], [99] * 20]))
    assert attached == 32
    backend.prepare_cache(paged)
    fill(paged, 32, 52)
    assert not paged.contiguous

    plain = KVCache(TINY)
    backend.prepare_cache(plain)
    for layer in range(TINY.n_layers):
        plain.append(layer, paged.layers[layer].keys,
                     paged.layers[layer].values)
    q = rng.normal(size=(TINY.n_q_heads, 1, d))
    for layer in range(TINY.n_layers):
        np.testing.assert_array_equal(
            paged.layers[layer].packed_signs,
            plain.layers[layer].packed_signs)
        np.testing.assert_array_equal(
            backend.forward_cached(layer, q, paged),
            backend.forward_cached(layer, q, plain))
