"""Property test: COW prefix refcounting never double-frees, leaks, or
mutates a block another session still references.

Hypothesis drives random interleavings of session admit (attach + fill +
publish), fork (attach an existing prompt), sign-cache enablement, and
free.  Prompts are drawn from a small family sharing block-aligned
prefixes, so interleavings genuinely exercise refcounts > 1.  After every
operation the full arena state is checked against a token-level oracle:
each live session's gathered keys must equal the deterministic encoding
of its own tokens — any cross-session mutation or premature reuse of a
shared block shows up as corrupted rows.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.serve.paged_kv import PagedKVPool
from tests.conftest import TINY

BT = 4
N_BLOCKS = 24
#: block-aligned prompt family: common 2-block base, then 3 variants that
#: extend it by 0-2 more blocks plus a distinguishing tail block.
_BASE = np.arange(2 * BT, dtype=np.int64)


def _prompt(variant: int, extra_blocks: int) -> np.ndarray:
    ext = np.full(extra_blocks * BT, 10 + variant, dtype=np.int64)
    tail = np.full(BT, 50 + variant, dtype=np.int64)
    return np.concatenate([_BASE, ext, tail])


def _enc(tokens, layer):
    t = np.asarray(tokens, dtype=np.float32)
    base = t[None, :, None] + 1000.0 * layer
    return np.broadcast_to(
        base, (TINY.n_kv_heads, len(t), TINY.head_dim)).astype(
            np.float32).copy()


_OPS = st.lists(
    st.one_of(
        st.tuples(st.just("admit"), st.integers(0, 2), st.integers(0, 2)),
        st.tuples(st.just("free"), st.integers(0, 7), st.integers(0, 0)),
        st.tuples(st.just("sign"), st.integers(0, 7), st.integers(0, 0)),
    ),
    min_size=1, max_size=24)


@settings(max_examples=60, deadline=None)
@given(ops=_OPS)
def test_random_interleavings_preserve_pool_invariants(ops):
    pool = PagedKVPool(TINY, n_blocks=N_BLOCKS, block_tokens=BT,
                       prefix_caching=True)
    live = []  # (cache, tokens)

    def check_invariants():
        # free-list accounting: free + live-session distinct blocks == all
        held = set()
        for cache, _ in live:
            held.update(cache.state()["blocks"])
        assert len(pool._free) == len(set(pool._free))
        assert held.isdisjoint(pool._free)
        assert len(held) + len(pool._free) == N_BLOCKS
        # every indexed entry's refcount equals the live sessions using it
        for entry in pool._prefix_index.values():
            holders = sum(1 for cache, _ in live
                          if entry.block in cache.state()["blocks"])
            assert entry.refcount == holders > 0
        # oracle: nobody's rows were mutated or reused out from under them
        for cache, tokens in live:
            for layer in range(TINY.n_layers):
                np.testing.assert_array_equal(
                    cache.layers[layer].keys, _enc(tokens, layer))

    for op, a, b in ops:
        if op == "admit":
            tokens = _prompt(a, b)
            if pool.blocks_for_tokens(len(tokens)) > pool.n_free:
                continue
            cache = pool.new_cache()
            attached = cache.attach_prefix(tokens)
            rest = tokens[attached:]
            for layer in range(TINY.n_layers):
                k = _enc(rest, layer)
                cache.append(layer, k, k.copy())
            cache.publish_prefix(tokens)
            live.append((cache, tokens))
        elif op == "free" and live:
            cache, _ = live.pop(a % len(live))
            cache.free()
            assert cache.freed
        elif op == "sign" and live:
            cache, _ = live[a % len(live)]
            cache.enable_sign_cache()
            assert cache.prefix_signed_tokens <= len(cache)
        check_invariants()

    for cache, _ in live:
        cache.free()
    # no leak, no double-free: the arena is exactly restored
    assert pool.n_free == N_BLOCKS
    assert sorted(pool._free) == list(range(N_BLOCKS))
    assert pool.shared_blocks == 0
    assert pool._prefix_index == {}
