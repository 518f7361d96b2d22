"""Prefix-cache observability: hit/miss counters, shared-block gauge.

The pool reports through its ``Obs`` bundle: ``serve.prefix.hit`` /
``serve.prefix.miss`` counters on attach outcomes and the
``serve.prefix.shared_blocks`` gauge tracking resident shared blocks.
A ``NULL_OBS``-bound pool must keep full functional behaviour while
recording nothing (the null-instrument no-op contract).
"""

import numpy as np

from repro.obs import NULL_OBS, MetricsRegistry, Obs, Tracer
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
        obs = Obs(MetricsRegistry(enabled=True), Tracer(enabled=False))
        pool = PagedKVPool(TINY, n_blocks=16, block_tokens=BT,
                           prefix_caching=True, obs=obs)
        _share_unshare(pool)
        assert obs.metrics.counter("serve.prefix.hit").value == 2
        assert obs.metrics.counter("serve.prefix.miss").value == 1
        gauge = obs.metrics.gauge("serve.prefix.shared_blocks")
        assert gauge.value == 0            # everything retired at the end
        assert gauge.high_watermark == 2   # but 2 blocks were resident
        # the plain-int pool telemetry agrees with the instruments
        assert pool.prefix_hits == 2
        assert pool.prefix_misses == 1
        assert pool.shared_blocks_peak == 2

    def test_gauge_tracks_partial_release(self):
        obs = Obs(MetricsRegistry(enabled=True), Tracer(enabled=False))
        pool = PagedKVPool(TINY, n_blocks=16, block_tokens=BT,
                           prefix_caching=True, obs=obs)
        tokens = np.arange(2 * BT)
        a = pool.new_cache()
        _prefill(a, tokens)
        b = pool.new_cache()
        b.attach_prefix(tokens)
        a.free()  # borrower still references both blocks
        assert obs.metrics.gauge("serve.prefix.shared_blocks").value == 2
        b.free()
        assert obs.metrics.gauge("serve.prefix.shared_blocks").value == 0


class TestNullInstruments:
    def test_null_obs_records_nothing_but_behaves_identically(self):
        pool = PagedKVPool(TINY, n_blocks=16, block_tokens=BT,
                           prefix_caching=True, obs=NULL_OBS)
        _share_unshare(pool)
        # functional behaviour unchanged: sharing happened and unwound
        assert pool.prefix_hits == 2
        assert pool.prefix_misses == 1
        assert pool.n_free == pool.n_blocks
        # but the disabled registry stored no instruments at all
        snapshot = NULL_OBS.metrics.snapshot()
        assert snapshot["counters"] == {}
        assert snapshot["gauges"] == {}
