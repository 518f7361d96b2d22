"""Block prefill kernel edges: selections == the per-head reference loop.

``LongSightAttention._forward_block`` filters, scores, *compacts* each
row's survivors, selects on the compacted width and attends over gathered
columns.  Every geometry below must pick exactly the keys the reference
loop (``use_fast_path=False``) picks, report the same ``FilterStats``
and agree on outputs to the fast-equivalence tolerance — for every
``prefill_tile``, since the tile only bounds the working set.
"""

import numpy as np
import pytest

from repro.core.config import LongSightConfig
from repro.core.hybrid import LongSightAttention
from repro.core.metrics import FilterStats
from repro.llm.config import ModelConfig
from repro.llm.kv_cache import KVCache
from tests.core.test_fast_equivalence import _compare, _qkv, _rotation_bank

#: 0 = one tile; 24 < every block below; 10**6 > every sparse span.
TILES = (0, 24, 10**6)


def _config(tile, **kwargs):
    base = dict(window=16, n_sink=4, top_k=8, thresholds=8,
                prefill_tile=tile)
    base.update(kwargs)
    return LongSightConfig(**base)


@pytest.mark.parametrize("tile", TILES)
@pytest.mark.parametrize("n_new,n_ctx", [(33, 33), (33, 200), (257, 257),
                                         (257, 300), (40, 41)])
def test_ragged_blocks(rng, tile, n_new, n_ctx):
    """Block sizes that divide nothing, with and without a past."""
    q, k, v = _qkv(rng, 4, 2, n_new, n_ctx, 16)
    _compare(_config(tile), q, k, v)


@pytest.mark.parametrize("tile", TILES)
def test_context_shorter_than_window(rng, tile):
    q, k, v = _qkv(rng, 4, 2, 40, 40, 16)
    out = _compare(_config(tile, window=64), q, k, v)
    assert np.isfinite(out).all()


@pytest.mark.parametrize("tile", (7, 16, 50))
def test_tile_boundary_splits_causal_triangle(rng, tile):
    """Tiles end inside the trailing columns that only later rows may
    select, so the causal cut is applied to partial tile slices."""
    n_new, n_ctx = 64, 160
    q, k, v = _qkv(rng, 2, 1, n_new, n_ctx, 16)
    cfg = _config(tile, window=8, n_sink=2, thresholds=0, top_k=200)
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
def test_top_k_extremes(rng, tile, top_k):
    q, k, v = _qkv(rng, 4, 2, 48, 120, 16)
    _compare(_config(tile, top_k=top_k), q, k, v)


@pytest.mark.parametrize("tile", TILES)
@pytest.mark.parametrize("threshold", (0, 32))
def test_threshold_extremes(rng, tile, threshold):
    """Threshold 0 passes every candidate; threshold ``head_dim`` passes
    none here (32 random sign bits never all agree), leaving empty pools."""
    d = 32
    q, k, v = _qkv(rng, 4, 2, 48, 150, d)
    stats = FilterStats(1, 2)
    cfg = _config(tile, thresholds=threshold)
    _compare(cfg, q, k, v)
    LongSightAttention(cfg, stats=stats).forward(0, q, k, v)
    if threshold:
        assert stats.passed.sum() == 0 and stats.retrieved.sum() == 0
    else:
        np.testing.assert_array_equal(stats.passed, stats.candidates)


@pytest.mark.parametrize("tile", (0, 16, 33))
def test_duplicate_keys_straddle_tiles(rng, tile):
    """Every key occurs four times, ``period`` columns apart, so equal
    scores sit in different tiles and the boundary tie must go to the
    lower column through compaction and the pool merge."""
    d, period = 16, 40
    base = rng.normal(size=(2, period, d))
    k = np.tile(base, (1, 4, 1))
    v = rng.normal(size=(2, 4 * period, d))
    q = rng.normal(size=(4, 48, d))
    _compare(_config(tile, window=8, n_sink=2, top_k=6, thresholds=0),
             q, k, v)


@pytest.mark.parametrize("tile", TILES)
def test_itq_rotations(rng, tile):
    d = 16
    q, k, v = _qkv(rng, 4, 2, 48, 130, d)
    _compare(_config(tile, use_itq=True), q, k, v,
             rotations=_rotation_bank(1, 2, d))


@pytest.mark.parametrize("tile", TILES)
@pytest.mark.parametrize("use_itq", (False, True))
def test_sign_cache_equals_stateless_entry(rng, tile, use_itq):
    """``forward`` (signs packed per tile from the keys) and
    ``forward_cached`` (signs read from the store) are the same kernel."""
    d = 16
    mc = ModelConfig(name="block-edge", vocab_size=8, n_layers=1,
                     n_q_heads=4, n_kv_heads=2, head_dim=d, d_ff=8)
    q, k, v = _qkv(rng, 4, 2, 48, 130, d)
    rotations = _rotation_bank(1, 2, d) if use_itq else None
    backend = LongSightAttention(_config(tile, use_itq=use_itq),
                                 rotations=rotations)
    cache = KVCache(mc)
    backend.prepare_cache(cache)
    cache.append(0, k.astype(np.float32), v.astype(np.float32))
    kv = cache.layers[0]
    np.testing.assert_array_equal(
        backend.forward_cached(0, q, cache),
        backend.forward(0, q, kv.keys, kv.values))


@pytest.mark.parametrize("tile", TILES)
def test_float16_kv(rng, tile):
    q, k, v = _qkv(rng, 4, 2, 48, 130, 16)
    _compare(_config(tile), q, k.astype(np.float16), v.astype(np.float16))
