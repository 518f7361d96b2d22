"""Prefix-cache accounting: hit/miss counts and resident shared blocks.

The pool counts attach outcomes in ``prefix_hits`` / ``prefix_misses``,
the blocks its prefix index holds in ``shared_blocks`` and their peak in
``shared_blocks_peak`` (the fleet report sums hits, misses and peaks).  A
``NULL_OBS``-bound pool behaves exactly as any other and leaves the
disabled registry empty.
"""

import numpy as np

from repro.obs import NULL_OBS
from repro.serve.paged_kv import PagedKVPool
from tests.conftest import TINY

BT = 4


def _prefill(cache, tokens):
    arr = np.asarray(tokens, dtype=np.int64)
    shape = (TINY.n_kv_heads, len(arr), TINY.head_dim)
    k = np.broadcast_to(
        arr.astype(np.float32)[None, :, None], shape).copy()
    for layer in range(TINY.n_layers):
        cache.append(layer, k, k.copy())
    cache.publish_prefix(arr)


def _share_unshare(pool):
    """Publish 2 blocks, attach them, miss once, free everything."""
    tokens = np.arange(2 * BT)
    a = pool.new_cache()
    _prefill(a, tokens)
    b = pool.new_cache()
    assert b.attach_prefix(tokens) == 2 * BT          # 2 hits, no miss
    c = pool.new_cache()
    assert c.attach_prefix(np.full(2 * BT, 9)) == 0   # 1 miss
    c.free()
    a.free()
    b.free()


class TestEnabledInstruments:
    def test_hit_miss_counters_and_gauge(self):
        pool = PagedKVPool(TINY, n_blocks=16, block_tokens=BT,
                           prefix_caching=True)
        _share_unshare(pool)
        assert pool.prefix_hits == 2
        assert pool.prefix_misses == 1
        assert pool.shared_blocks == 0        # everything retired at the end
        assert pool.shared_blocks_peak == 2   # but 2 blocks were resident

    def test_gauge_tracks_partial_release(self):
        pool = PagedKVPool(TINY, n_blocks=16, block_tokens=BT,
                           prefix_caching=True)
        tokens = np.arange(2 * BT)
        a = pool.new_cache()
        _prefill(a, tokens)
        b = pool.new_cache()
        b.attach_prefix(tokens)
        a.free()  # borrower still references both blocks
        assert pool.shared_blocks == 2
        b.free()
        assert pool.shared_blocks == 0


class TestNullInstruments:
    def test_null_obs_records_nothing_but_behaves_identically(self):
        pool = PagedKVPool(TINY, n_blocks=16, block_tokens=BT,
                           prefix_caching=True, obs=NULL_OBS)
        _share_unshare(pool)
        # functional behaviour unchanged: sharing happened and unwound
        assert pool.prefix_hits == 2
        assert pool.prefix_misses == 1
        assert pool.n_free == pool.n_blocks
        # and the disabled registry stored no counter at all
        assert NULL_OBS.metrics.snapshot() == {}
