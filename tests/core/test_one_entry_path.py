"""``forward`` is ``forward_cached`` over arrays: the same bits.

Stateless :meth:`LongSightAttention.forward` wraps the caller's K/V as a
one-layer cache and runs the cached entry point, whose key signs then come
from packing the keys instead of from a sign store.  Each case holds a
cache whose store was packed under the backend's rotations, under another
bank, or not at all, and checks that ``forward`` over the cache's own K/V
returns exactly the bits and selections ``forward_cached`` returns — for a
decode row, a block inside ``n_sink + window``, a block crossing it and a
block that walks several key tiles, with ITQ on and off, and at
``top_k = 0``.
"""

import numpy as np
import pytest

from repro.core.config import LongSightConfig
from repro.core.hybrid import LongSightAttention
from repro.core.itq import ItqRotations, random_rotation
from repro.llm.kv_cache import KVCache
from tests.conftest import TINY

D_HEAD = TINY.head_dim
#: name -> (n_ctx, n_new, forced key tile or 0).  Sinks + window = 12.
SHAPES = {
    "decode_row": (40, 1, 0),
    "block_inside_dense": (10, 6, 0),
    "block_crossing_dense": (30, 24, 0),
    "multi_tile_block": (60, 8, 5),
}


def _bank(seed: int) -> ItqRotations:
    bank = ItqRotations(TINY.n_layers, TINY.n_kv_heads, D_HEAD)
    for layer in range(TINY.n_layers):
        for head in range(TINY.n_kv_heads):
            bank.set(layer, head, random_rotation(D_HEAD, seed + 7 * layer
                                                  + head))
    return bank


@pytest.mark.parametrize("top_k", [4, 0])
@pytest.mark.parametrize("store", ["own", "other_bank", "none"])
@pytest.mark.parametrize("use_itq", [False, True])
@pytest.mark.parametrize("shape", sorted(SHAPES))
def test_forward_is_forward_cached(rng, key_tile, shape, use_itq, store,
                                   top_k):
    n_ctx, n_new, tile = SHAPES[shape]
    key_tile(tile, n_new)
    bank = _bank(0)
    backend = LongSightAttention(
        LongSightConfig(window=8, n_sink=4, top_k=top_k,
                        thresholds=D_HEAD // 2, use_itq=use_itq),
        rotations=bank)
    cache = KVCache(TINY)
    if store == "own":
        backend.prepare_cache(cache)
    elif store == "other_bank":
        # Signs the backend must not read: rotated by a bank it does not
        # use (another bank under ITQ, any bank without it).
        cache.enable_sign_cache(_bank(100))
    k, v = (rng.normal(size=(TINY.n_kv_heads, n_ctx, D_HEAD))
            for _ in range(2))
    cache.append(0, k, v)
    assert backend._reads_sign_store(cache) == (store == "own" and top_k > 0)
    q = rng.normal(size=(TINY.n_q_heads, n_new, D_HEAD))

    results = []
    for run in ("cached", "arrays"):
        backend.selection_capture = {}
        kv = cache.layers[0]
        out = (backend.forward_cached(0, q, cache) if run == "cached"
               else backend.forward(0, q, kv.keys, kv.values))
        results.append((out, backend.selection_capture))
    (cached, cached_sel), (arrays, arrays_sel) = results
    np.testing.assert_array_equal(arrays, cached)
    assert sorted(arrays_sel) == sorted(cached_sel)
    for key, mask in cached_sel.items():
        np.testing.assert_array_equal(arrays_sel[key], mask)
    if top_k and n_ctx > 12:          # the sparse path really ran
        assert any(mask.any() for mask in cached_sel.values())
