"""Prefix caching in the paged KV pool: attach, publish, refcounts, free.

These tests drive :class:`PagedKVCache` directly with synthetic K/V (no
transformer): the block-sharing machinery only moves and refcounts arena
rows, so deterministic per-token encodings are enough to prove blocks are
shared bit-exactly and never mutated while another session holds them.
"""

import numpy as np
import pytest

from repro.serve.paged_kv import PagedKVPool
from tests.conftest import TINY

BT = 4  # block_tokens used throughout


@pytest.fixture
def pool():
    return PagedKVPool(TINY, n_blocks=16, block_tokens=BT,
                       prefix_caching=True)


def _enc(tokens, layer):
    """Deterministic (token, layer) -> K/V rows encoding."""
    t = np.asarray(tokens, dtype=np.float32)
    base = t[None, :, None] + 1000.0 * layer
    return np.broadcast_to(
        base, (TINY.n_kv_heads, len(t), TINY.head_dim)).astype(
            np.float32).copy()


def _prefill(cache, tokens):
    """Simulate the engine: append all layers, then publish full blocks."""
    arr = np.asarray(tokens, dtype=np.int64)
    for layer in range(TINY.n_layers):
        k = _enc(arr, layer)
        cache.append(layer, k, k.copy())
    cache.publish_prefix(arr)


class TestAttachPublish:
    def test_attach_on_empty_index_misses(self, pool):
        cache = pool.new_cache()
        assert cache.attach_prefix(np.arange(3 * BT)) == 0
        assert pool.prefix_hits == 0
        assert pool.prefix_misses == 1
        cache.free()

    def test_publish_then_attach_shares_blocks(self, pool):
        tokens = np.arange(2 * BT + 2)  # two full blocks + a partial
        a = pool.new_cache()
        _prefill(a, tokens)
        assert pool.shared_blocks == 2

        b = pool.new_cache()
        attached = b.attach_prefix(tokens)
        assert attached == 2 * BT
        assert pool.prefix_hits == 2
        # the borrower maps the very same arena blocks
        assert b.block_ids == a.block_ids[:2]
        for layer in range(TINY.n_layers):
            np.testing.assert_array_equal(
                b.layers[layer].keys, _enc(tokens[:2 * BT], layer))
        a.free()
        b.free()

    def test_attach_stops_at_divergence(self, pool):
        shared = np.arange(2 * BT)
        a = pool.new_cache()
        _prefill(a, np.concatenate([shared, np.full(BT, 7)]))
        b = pool.new_cache()
        attached = b.attach_prefix(np.concatenate([shared, np.full(BT, 9)]))
        assert attached == 2 * BT  # diverging third block missed
        assert pool.prefix_misses == 1
        # the borrower finishes its own divergent block privately
        _prefill_from(b, np.concatenate([shared, np.full(BT, 9)]), attached)
        b.publish_prefix(np.concatenate([shared, np.full(BT, 9)]))
        assert pool.shared_blocks == 4  # 2 shared + one private tail each
        a.free()
        b.free()
        assert pool.n_free == pool.n_blocks

    def test_attach_requires_empty_cache(self, pool):
        tokens = np.arange(BT)
        a = pool.new_cache()
        _prefill(a, tokens)
        b = pool.new_cache()
        _prefill_from(b, tokens, 0)
        with pytest.raises(RuntimeError):
            b.attach_prefix(tokens)
        a.free()
        b.free()

    def test_duplicate_publish_keeps_private_copy(self, pool):
        tokens = np.arange(2 * BT)
        a = pool.new_cache()
        _prefill(a, tokens)
        b = pool.new_cache()
        _prefill_from(b, tokens, 0)  # raced: prefilled without attaching
        assert b.publish_prefix(tokens) == 0  # digests already registered
        assert pool.shared_blocks == 2
        assert set(a.block_ids).isdisjoint(b.block_ids)
        a.free()
        b.free()
        assert pool.n_free == pool.n_blocks
        assert pool.shared_blocks == 0

    def test_disabled_pool_is_inert(self):
        pool = PagedKVPool(TINY, n_blocks=8, block_tokens=BT,
                           prefix_caching=False)
        cache = pool.new_cache()
        _prefill(cache, np.arange(2 * BT))
        assert pool.shared_blocks == 0
        other = pool.new_cache()
        assert other.attach_prefix(np.arange(2 * BT)) == 0
        assert pool.prefix_hits == 0 and pool.prefix_misses == 0
        cache.free()
        other.free()
        assert pool.n_free == 8


def _prefill_from(cache, tokens, start):
    """Append layers for ``tokens[start:]`` (resume after attach)."""
    arr = np.asarray(tokens, dtype=np.int64)[start:]
    for layer in range(TINY.n_layers):
        k = _enc(arr, layer)
        cache.append(layer, k, k.copy())


class TestRefcountLifecycle:
    def test_blocks_survive_publisher_free(self, pool):
        tokens = np.arange(2 * BT)
        a = pool.new_cache()
        _prefill(a, tokens)
        b = pool.new_cache()
        b.attach_prefix(tokens)
        a.free()  # publisher leaves first
        assert pool.shared_blocks == 2  # borrower still holds them
        assert pool.n_free == pool.n_blocks - 2
        for layer in range(TINY.n_layers):
            np.testing.assert_array_equal(
                b.layers[layer].keys, _enc(tokens, layer))
        b.free()  # last reference drops -> blocks return, entries retire
        assert pool.shared_blocks == 0
        assert pool.n_free == pool.n_blocks

    def test_no_resident_caching_after_last_free(self, pool):
        tokens = np.arange(2 * BT)
        a = pool.new_cache()
        _prefill(a, tokens)
        a.free()
        assert pool.shared_blocks == 0  # entries retire with the session
        late = pool.new_cache()
        assert late.attach_prefix(tokens) == 0  # nothing left to attach
        late.free()

    def test_free_is_idempotent_with_shared_blocks(self, pool):
        tokens = np.arange(BT)
        a = pool.new_cache()
        _prefill(a, tokens)
        b = pool.new_cache()
        b.attach_prefix(tokens)
        b.free()
        b.free()  # second free must not decref again
        assert pool.shared_blocks == 1
        a.free()
        assert pool.n_free == pool.n_blocks

    def test_three_way_share_counts_references(self, pool):
        tokens = np.arange(2 * BT)
        a = pool.new_cache()
        _prefill(a, tokens)
        borrowers = []
        for _ in range(2):
            c = pool.new_cache()
            c.attach_prefix(tokens)
            borrowers.append(c)
        # 3 sessions, but only 2 distinct blocks live in the arena
        assert pool.n_used == 2
        a.free()
        borrowers[0].free()
        assert pool.n_used == 2  # one reference still standing
        borrowers[1].free()
        assert pool.n_used == 0
        assert pool.shared_blocks == 0


class TestProbe:
    def test_longest_prefix_probe_is_metric_free(self, pool):
        tokens = np.arange(3 * BT)
        a = pool.new_cache()
        _prefill(a, tokens)
        hits_before = pool.prefix_hits
        assert pool.longest_prefix_tokens(tokens) == 3 * BT
        assert pool.longest_prefix_tokens(tokens[: 2 * BT + 1]) == 2 * BT
        assert pool.longest_prefix_tokens(np.full(BT, 63)) == 0
        assert pool.prefix_hits == hits_before
        assert pool.prefix_misses == 0
        a.free()

    def test_probe_scores_exactly_what_attach_attaches(self, pool):
        """The router's locality score and the engine's attach are one
        walk (``PagedKVPool.indexed_prefix``): for random prompts against
        a populated index they agree token for token."""
        rng = np.random.default_rng(5)
        published = [rng.integers(0, 64, size=3 * BT) for _ in range(3)]
        published[1][:BT] = published[0][:BT]       # two share a first block
        publishers = [pool.new_cache() for _ in published]
        for cache, tokens in zip(publishers, published):
            _prefill(cache, tokens)
        assert pool.shared_blocks == 8
        scores = set()
        for _ in range(200):                # a published head ++ a random tail
            head = published[rng.integers(3)][:rng.integers(0, 3 * BT + 1)]
            prompt = np.concatenate(
                [head, rng.integers(0, 64, size=rng.integers(0, 2 * BT))])
            score = pool.longest_prefix_tokens(prompt)
            fresh = pool.new_cache()
            assert fresh.attach_prefix(prompt) == score == len(fresh)
            assert [e.block for e in pool.indexed_prefix(prompt)] \
                == fresh.block_ids
            fresh.free()
            scores.add(score)
        assert scores == {0, BT, 2 * BT, 3 * BT}
        for cache in publishers:
            cache.free()
        assert pool.n_free == pool.n_blocks
