"""Paged KV pool: block accounting, gather parity, and reuse under churn."""

import numpy as np
import pytest

from repro.errors import PoolExhaustedError
from repro.llm.kv_cache import KVCache
from repro.serve.paged_kv import PagedKVPool
from tests.conftest import TINY


@pytest.fixture
def pool():
    return PagedKVPool(TINY, n_blocks=8, block_tokens=4)


def _kv(rng, n, heads=TINY.n_kv_heads, dim=TINY.head_dim):
    return (rng.normal(size=(heads, n, dim)).astype(np.float32),
            rng.normal(size=(heads, n, dim)).astype(np.float32))


class TestPoolAccounting:
    def test_starts_fully_free(self, pool):
        assert pool.n_free == 8
        assert pool.n_used == 0

    def test_blocks_for_tokens_rounds_up(self, pool):
        assert pool.blocks_for_tokens(0) == 0
        assert pool.blocks_for_tokens(1) == 1
        assert pool.blocks_for_tokens(4) == 1
        assert pool.blocks_for_tokens(5) == 2

    def test_allocate_release_roundtrip(self, pool):
        blocks = pool.allocate(3)
        assert pool.n_used == 3
        pool.release(blocks)
        assert pool.n_free == 8
        assert pool.total_allocated == 3
        assert pool.total_released == 3

    def test_exhaustion_is_all_or_nothing(self, pool):
        pool.allocate(6)
        with pytest.raises(PoolExhaustedError):
            pool.allocate(3)
        # the failed request must not have consumed any of the 2 left
        assert pool.n_free == 2

    def test_double_free_rejected(self, pool):
        blocks = pool.allocate(2)
        pool.release(blocks)
        with pytest.raises(ValueError):
            pool.release(blocks)

    def test_double_free_inside_one_call_rejected(self, pool):
        """``release([b, b])`` would put ``b`` on the free list twice and
        hand the same arena rows to two later sessions."""
        b, other = pool.allocate(2)
        for blocks in ([b, b], [other, b, other]):
            with pytest.raises(ValueError, match="double free"):
                pool.release(blocks)
            assert pool.n_free == 6             # nothing was returned
        free_block = pool.allocate(1)[0]
        pool.release([free_block])
        with pytest.raises(ValueError, match="double free"):
            pool.release([b, free_block])
        assert pool.n_free == 6
        pool.release([b, other])
        assert pool.n_free == 8
        assert sorted(pool.allocate(8)) == list(range(8))   # each block once

    def test_out_of_range_block_rejected(self, pool):
        with pytest.raises(ValueError):
            pool.release([99])

    def test_lifo_reuse(self, pool):
        first = pool.allocate(2)
        pool.release(first)
        again = pool.allocate(2)
        # most recently released blocks come back first (hot rows)
        assert set(again) == set(first)

    def test_high_watermark_tracks_peak(self, pool):
        a = pool.allocate(5)
        pool.release(a)
        pool.allocate(2)
        assert pool.high_watermark == 5


class TestGatherParity:
    """A paged session must read back exactly what a private cache would."""

    def test_keys_values_match_kv_cache(self, rng):
        pool = PagedKVPool(TINY, n_blocks=16, block_tokens=4)
        paged, plain = pool.new_cache(), KVCache(TINY)
        for n in (3, 4, 9, 1):
            for layer in range(TINY.n_layers):
                k, v = _kv(rng, n)
                paged.append(layer, k, v)
                plain.append(layer, k, v)
        for layer in range(TINY.n_layers):
            np.testing.assert_array_equal(paged.layers[layer].keys,
                                          plain.layers[layer].keys)
            np.testing.assert_array_equal(paged.layers[layer].values,
                                          plain.layers[layer].values)

    def test_packed_signs_match_kv_cache(self, rng):
        pool = PagedKVPool(TINY, n_blocks=16, block_tokens=4)
        paged, plain = pool.new_cache(), KVCache(TINY)
        paged.enable_sign_cache()
        plain.enable_sign_cache()
        for n in (5, 2, 8):
            for layer in range(TINY.n_layers):
                k, v = _kv(rng, n)
                paged.append(layer, k, v)
                plain.append(layer, k, v)
        for layer in range(TINY.n_layers):
            np.testing.assert_array_equal(paged.layers[layer].packed_signs,
                                          plain.layers[layer].packed_signs)

    def test_enable_sign_cache_packs_backlog(self, rng):
        pool = PagedKVPool(TINY, n_blocks=16, block_tokens=4)
        paged, plain = pool.new_cache(), KVCache(TINY)
        for layer in range(TINY.n_layers):
            k, v = _kv(rng, 7)
            paged.append(layer, k, v)
            plain.append(layer, k, v)
        paged.enable_sign_cache()
        plain.enable_sign_cache()
        for layer in range(TINY.n_layers):
            np.testing.assert_array_equal(paged.layers[layer].packed_signs,
                                          plain.layers[layer].packed_signs)

    def test_views_match_kv_cache(self, rng):
        pool = PagedKVPool(TINY, n_blocks=16, block_tokens=4)
        paged, plain = pool.new_cache(), KVCache(TINY)
        for layer in range(TINY.n_layers):
            k, v = _kv(rng, 30)
            paged.append(layer, k, v)
            plain.append(layer, k, v)
        pk, pv, ppos = paged.window_view(0, window=8, n_sink=4)
        ck, cv, cpos = plain.window_view(0, window=8, n_sink=4)
        np.testing.assert_array_equal(pk, ck)
        np.testing.assert_array_equal(pv, cv)
        np.testing.assert_array_equal(ppos, cpos)
        np.testing.assert_array_equal(ppos, np.r_[0:4, 22:30])

    def test_views_read_the_window_not_the_context(self, rng, monkeypatch):
        """A prefix-attached, non-contiguous session: the window view equals
        the plain cache's, and past ``n_sink + window`` tokens it does not
        gather the whole context out of the arena (the decode routine's
        panel read is ``window_view``)."""
        from repro.serve.paged_kv import PagedLayerKV

        pool = PagedKVPool(TINY, n_blocks=32, block_tokens=4,
                           prefix_caching=True)
        tokens = np.arange(8)
        head_k, head_v = _kv(rng, 8)
        publisher = pool.new_cache()
        publisher.append(0, head_k, head_v)
        assert publisher.publish_prefix(tokens) == 2
        pool.new_cache().ensure_tokens(1)          # breaks block adjacency
        paged, plain = pool.new_cache(), KVCache(TINY)
        assert paged.attach_prefix(tokens) == 8
        plain.append(0, head_k, head_v)
        for n in (3, 19):                          # 11 tokens, then 30
            k, v = _kv(rng, n)
            paged.append(0, k, v)
            plain.append(0, k, v)
            assert not paged.contiguous
            gathers = []
            gather = PagedLayerKV._gather
            monkeypatch.setattr(
                PagedLayerKV, "_gather",
                lambda self, arena: (gathers.append(1) if self in paged.layers
                                     else None) or gather(self, arena))
            view = paged.window_view(0, window=8, n_sink=4)
            for got, want in zip(view, plain.window_view(0, window=8,
                                                         n_sink=4)):
                np.testing.assert_array_equal(got, want)
                assert got.dtype == want.dtype
            monkeypatch.undo()
            np.testing.assert_array_equal(
                view[2], np.arange(11) if n == 3 else np.r_[0:4, 22:30])
            # 11 <= n_sink + window: the window *is* the context (K and V).
            assert len(gathers) == (2 if len(paged) <= 12 else 0)

    def test_pooled_decode_reads_in_place(self, rng, monkeypatch):
        """A pooled decode step on a prefix-attached, non-contiguous
        session never asks for the whole context — not its keys, not its
        values, not its signs — and equals the plain cache bit for bit.
        The row readers answer slices and ``take`` as an ndarray does."""
        from repro.core.config import LongSightConfig
        from repro.core.hybrid import LongSightAttention
        from repro.serve.paged_kv import PagedLayerKV

        backend = LongSightAttention(LongSightConfig(
            window=8, n_sink=4, top_k=6, thresholds=TINY.head_dim // 2))
        pool = PagedKVPool(TINY, n_blocks=64, block_tokens=4,
                           prefix_caching=True)
        tokens = np.arange(8)
        head_k, head_v = _kv(rng, 8)
        publisher = pool.new_cache()
        backend.prepare_cache(publisher)
        publisher.append(0, head_k, head_v)
        assert publisher.publish_prefix(tokens) == 2
        pool.new_cache().ensure_tokens(1)          # breaks block adjacency
        paged, plain = pool.new_cache(), KVCache(TINY)
        assert paged.attach_prefix(tokens) == 8
        backend.prepare_cache(paged)
        backend.prepare_cache(plain)
        plain.append(0, head_k, head_v)
        k, v = _kv(rng, 150)
        paged.append(0, k, v)
        plain.append(0, k, v)
        assert not paged.contiguous
        assert backend._pooled(len(paged))

        kv, ref = paged.layers[0], plain.layers[0]
        index = np.array([157, 0, 9, 9, 31])
        for head in range(TINY.n_kv_heads):
            for name in ("key_rows", "value_rows", "sign_rows"):
                got, want = getattr(kv, name)(head), getattr(ref, name)(head)
                for span in (slice(5, 77), slice(None), slice(150, None)):
                    np.testing.assert_array_equal(got[span], want[span])
                for at in (index, index[:, None]):
                    np.testing.assert_array_equal(got.take(at, axis=0),
                                                  want.take(at, axis=0))
                np.testing.assert_array_equal(
                    got.take(index + 100, axis=0, mode="clip"),
                    want.take(index + 100, axis=0, mode="clip"))

        whole = []
        for name in ("keys", "values", "packed_signs"):
            read = getattr(PagedLayerKV, name).fget
            monkeypatch.setattr(
                PagedLayerKV, name, property(
                    lambda self, read=read, name=name:
                    whole.append(name) or read(self)))
        q = rng.normal(size=(TINY.n_q_heads, 1, TINY.head_dim))
        out = backend.forward_cached_batch(0, [q, q], [paged, plain])
        assert whole == []
        np.testing.assert_array_equal(out[0], out[1])
        # A multi-query block reads the keys and values it scores whole,
        # and its signs by range, as a decode row does.
        backend.forward_cached(0, np.repeat(q, 2, axis=1), paged)
        assert sorted(whole) == ["keys", "values"]

    def test_every_pooled_context_reads_in_place(self, rng, monkeypatch):
        """Past ``n_sink + window + top_k`` (18) a decode row is panel ++
        pool at every context: no such step asks a non-contiguous session
        for its whole context.  At contexts 13-18 the row's masked panel
        is its first ``n`` keys and values — that context, no more — and
        its signs are still read by range.  Each equals the plain cache
        bit for bit."""
        from repro.core.config import LongSightConfig
        from repro.core.hybrid import LongSightAttention
        from repro.serve.paged_kv import PagedLayerKV

        backend = LongSightAttention(LongSightConfig(
            window=8, n_sink=4, top_k=6, thresholds=TINY.head_dim // 2))
        pool = PagedKVPool(TINY, n_blocks=64, block_tokens=4)
        paged, plain, spacer = pool.new_cache(), KVCache(TINY), \
            pool.new_cache()
        for cache in (paged, plain):
            backend.prepare_cache(cache)
        whole = []
        for name in ("keys", "values", "packed_signs"):
            read = getattr(PagedLayerKV, name).fget
            monkeypatch.setattr(
                PagedLayerKV, name, property(
                    lambda self, read=read, name=name:
                    whole.append(name) or read(self)))
        k, v = _kv(rng, 12)
        for cache in (paged, plain):
            cache.append(0, k, v)
        for n_ctx in range(13, 31):
            spacer.ensure_tokens(n_ctx)        # interleaves the blocks
            k, v = _kv(rng, 1)
            for cache in (paged, plain):
                cache.append(0, k, v)
            assert backend._pooled(n_ctx) == (n_ctx > 18)
            whole.clear()
            q = rng.normal(size=(TINY.n_q_heads, 1, TINY.head_dim))
            out = backend.forward_cached_batch(0, [q, q], [paged, plain])
            assert whole == ([] if n_ctx > 18 else ["keys", "values"] * 2)
            np.testing.assert_array_equal(out[0], out[1])
        assert not paged.contiguous

    def test_interleaved_sessions_stay_logically_ordered(self, rng):
        """Two sessions growing turn-by-turn get interleaved (non-contiguous)
        blocks, yet each reads back its own tokens in logical order."""
        pool = PagedKVPool(TINY, n_blocks=8, block_tokens=2)
        a, b = pool.new_cache(), pool.new_cache()
        a_chunks, b_chunks = [], []
        for _ in range(3):
            ka, va = _kv(rng, 2)
            kb, vb = _kv(rng, 2)
            a.append(0, ka, va)
            b.append(0, kb, vb)
            a_chunks.append(ka)
            b_chunks.append(kb)
        assert not a.contiguous or not b.contiguous
        np.testing.assert_array_equal(
            a.layers[0].keys, np.concatenate(a_chunks, axis=1))
        np.testing.assert_array_equal(
            b.layers[0].keys, np.concatenate(b_chunks, axis=1))


class TestSessionLifecycle:
    def test_free_returns_blocks_and_is_idempotent(self, rng):
        pool = PagedKVPool(TINY, n_blocks=8, block_tokens=4)
        cache = pool.new_cache()
        k, v = _kv(rng, 10)
        for layer in range(TINY.n_layers):
            cache.append(layer, k, v)
        assert pool.n_used == 3
        cache.free()
        assert pool.n_free == 8
        assert cache.freed
        cache.free()  # idempotent
        assert pool.n_free == 8

    def test_append_after_free_raises(self, rng):
        pool = PagedKVPool(TINY, n_blocks=8, block_tokens=4)
        cache = pool.new_cache()
        cache.free()
        k, v = _kv(rng, 1)
        with pytest.raises(RuntimeError):
            cache.append(0, k, v)

    def test_failed_growth_preserves_existing_blocks(self, rng):
        pool = PagedKVPool(TINY, n_blocks=4, block_tokens=4)
        cache = pool.new_cache()
        k, v = _kv(rng, 8)
        for layer in range(TINY.n_layers):
            cache.append(layer, k, v)
        held = cache.n_blocks
        with pytest.raises(PoolExhaustedError):
            cache.ensure_tokens(100)
        assert cache.n_blocks == held
        np.testing.assert_array_equal(cache.layers[0].keys, k)

    def test_admit_complete_churn_reuses_blocks(self, rng):
        """Regression: block free/reuse under admission/completion churn —
        the pool must neither leak nor grow its high watermark once
        steady-state reuse kicks in."""
        pool = PagedKVPool(TINY, n_blocks=6, block_tokens=4)
        for round_ in range(10):
            live = [pool.new_cache() for _ in range(3)]
            for cache in live:
                k, v = _kv(rng, 7)
                for layer in range(TINY.n_layers):
                    cache.append(layer, k, v)
            assert pool.n_used == 6
            for cache in live:
                cache.free()
            assert pool.n_free == 6
        assert pool.high_watermark == 6
        assert pool.total_allocated == pool.total_released == 60


class TestExhaustionDiagnostics:
    def test_message_reports_occupancy_and_free_list_depth(self):
        pool = PagedKVPool(TINY, n_blocks=8, block_tokens=4)
        pool.allocate(6)
        with pytest.raises(PoolExhaustedError) as excinfo:
            pool.allocate(5)
        message = str(excinfo.value)
        assert "need 5 blocks" in message
        assert "2 of 8 free" in message
        assert f"6 occupied x {TINY.n_layers} layers" in message
        assert "4 tokens/block" in message
        assert "0 shared prefix blocks" in message
        assert "free-list depth 2" in message
        assert "high watermark 6" in message

    def test_structured_fields_match_pool_state(self):
        pool = PagedKVPool(TINY, n_blocks=8, block_tokens=4,
                           prefix_caching=True)
        cache = pool.new_cache()
        k = np.zeros((TINY.n_kv_heads, 8, TINY.head_dim), dtype=np.float32)
        for layer in range(TINY.n_layers):
            cache.append(layer, k, k.copy())
        cache.publish_prefix(np.arange(8))
        with pytest.raises(PoolExhaustedError) as excinfo:
            pool.allocate(7)
        err = excinfo.value
        assert err.need == 7
        assert err.free == 6
        assert err.total == 8
        assert err.used == 2
        assert err.block_tokens == 4
        assert err.n_layers == TINY.n_layers
        assert err.shared_prefix_blocks == 2
        assert err.high_watermark == 2
        assert "2 shared prefix blocks" in str(err)

    def test_structured_fields_stay_consistent_under_cow_sharing(self):
        """After publish + attach (copy-on-write sharing) and divergent
        growth, every structured field must equal the live pool property
        it mirrors — shared blocks are counted once, not per attacher."""
        pool = PagedKVPool(TINY, n_blocks=8, block_tokens=4,
                           prefix_caching=True)
        prompt = np.arange(8)
        publisher = pool.new_cache()
        k = np.zeros((TINY.n_kv_heads, 8, TINY.head_dim), dtype=np.float32)
        for layer in range(TINY.n_layers):
            publisher.append(layer, k, k.copy())
        publisher.publish_prefix(prompt)

        attacher = pool.new_cache()
        assert attacher.attach_prefix(prompt) == 8
        # The attacher then diverges: its growth allocates private blocks
        # while the shared prefix blocks stay refcounted at 2.
        grow = np.zeros((TINY.n_kv_heads, 4, TINY.head_dim),
                        dtype=np.float32)
        for layer in range(TINY.n_layers):
            attacher.append(layer, grow, grow.copy())
        assert all(e.refcount == 2
                   for e in pool._prefix_index.values())

        with pytest.raises(PoolExhaustedError) as excinfo:
            pool.allocate(pool.n_free + 1)
        err = excinfo.value
        assert err.need == pool.n_free + 1
        assert err.free == pool.n_free == 5
        assert err.total == pool.n_blocks
        assert err.used == pool.n_used == 3  # 2 shared + 1 private
        assert err.shared_prefix_blocks == pool.shared_blocks == 2
        assert err.high_watermark == pool.high_watermark

        # Releasing the attacher drops refcounts but keeps the published
        # blocks shared; the next error must reflect the new occupancy.
        attacher.free()
        assert all(e.refcount == 1
                   for e in pool._prefix_index.values())
        with pytest.raises(PoolExhaustedError) as excinfo:
            pool.allocate(pool.n_free + 2)
        err = excinfo.value
        assert err.free == pool.n_free == 6
        assert err.used == pool.n_used == 2
        assert err.shared_prefix_blocks == pool.shared_blocks == 2

    def test_message_only_construction_still_works(self):
        err = PoolExhaustedError("out of blocks")
        assert str(err) == "out of blocks"
        assert err.need == 0 and err.used == 0
