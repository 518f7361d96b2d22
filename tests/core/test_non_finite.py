"""Non-finite inputs raise :class:`NonFiniteError`, never a silent token.

A NaN or infinite key or value is refused by the one layer store's
``append`` (every backend, plain and paged caches) before anything is
written, and by stateless ``forward`` for the caller's arrays; a
non-finite query is refused by both kernel entry points.  The served path
(an engine whose model has one infinite embedding row) is in
``tests/serve/test_numeric_edges.py``.
"""

import dataclasses

import numpy as np
import pytest

from repro.core.config import LongSightConfig
from repro.core.hybrid import LongSightAttention
from repro.errors import NonFiniteError, ReproError
from repro.llm.kv_cache import KVCache
from repro.serve.paged_kv import PagedKVPool
from tests.conftest import TINY

D_HEAD = TINY.head_dim
BAD = [np.nan, np.inf, -np.inf]
#: Sinks + window = 12: 8-query blocks and decode rows at 30 are pooled.
CONFIG = LongSightConfig(window=8, n_sink=4, top_k=4, thresholds=D_HEAD // 2)


def _poisoned(rng, shape, bad):
    x = rng.normal(size=shape)
    x[(0,) * (len(shape) - 1) + (-1,)] = bad
    return x


def _filled(cache, rng, n_ctx=30):
    k, v = (rng.normal(size=(TINY.n_kv_heads, n_ctx, D_HEAD))
            for _ in range(2))
    for layer in range(TINY.n_layers):
        cache.append(layer, k, v)
    return cache


def test_error_type():
    assert issubclass(NonFiniteError, ReproError)
    assert issubclass(NonFiniteError, ValueError)


@pytest.mark.parametrize("n_new", [1, 8])
@pytest.mark.parametrize("where", ["key", "value", "query"])
@pytest.mark.parametrize("bad", BAD)
def test_forward_rejects(rng, bad, where, n_new):
    shapes = {"query": (TINY.n_q_heads, n_new, D_HEAD),
              "key": (TINY.n_kv_heads, 30, D_HEAD),
              "value": (TINY.n_kv_heads, 30, D_HEAD)}
    arrays = {name: (_poisoned(rng, shape, bad) if name == where
                     else rng.normal(size=shape))
              for name, shape in shapes.items()}
    with pytest.raises(NonFiniteError):
        LongSightAttention(CONFIG).forward(
            0, arrays["query"], arrays["key"], arrays["value"])


def _caches(kind):
    if kind == "plain":
        return KVCache(TINY), None
    pool = PagedKVPool(TINY, n_blocks=16, block_tokens=4)
    return pool.new_cache(), pool


@pytest.mark.parametrize("kind", ["plain", "paged"])
@pytest.mark.parametrize("where", ["key", "value"])
@pytest.mark.parametrize("bad", BAD)
def test_append_rejects_before_writing(rng, bad, where, kind):
    """The store refuses the rows and is left as it was: no length, no
    arena row, no pool block, no packed sign."""
    cache, pool = _caches(kind)
    backend = LongSightAttention(CONFIG)
    backend.prepare_cache(cache)
    _filled(cache, rng)
    kv = cache.layers[0]
    before = (kv.keys.copy(), kv.values.copy(), kv.signs_packed_total)
    free = pool.n_free if pool is not None else None
    q = rng.normal(size=(TINY.n_q_heads, 1, D_HEAD))
    out = backend.forward_cached(0, q, cache)
    shape = (TINY.n_kv_heads, 3, D_HEAD)
    k, v = rng.normal(size=shape), rng.normal(size=shape)
    if where == "key":
        k[1, 2, 0] = bad
    else:
        v[1, 2, 0] = bad
    with pytest.raises(NonFiniteError):
        cache.append(0, k, v)
    assert len(kv) == 30
    np.testing.assert_array_equal(kv.keys, before[0])
    np.testing.assert_array_equal(kv.values, before[1])
    assert kv.signs_packed_total == before[2]
    if pool is not None:
        assert pool.n_free == free
    np.testing.assert_array_equal(backend.forward_cached(0, q, cache), out)


def test_append_rejects_a_key_the_store_dtype_overflows(rng):
    """Finite in float64, infinite once stored as float16."""
    cache = KVCache(dataclasses.replace(TINY, kv_dtype="float16"))
    k = rng.normal(size=(TINY.n_kv_heads, 2, D_HEAD))
    k[0, 1, 3] = 1e6
    with pytest.raises(NonFiniteError), np.errstate(over="ignore"):
        cache.append(0, k, np.zeros_like(k))
    assert len(cache.layers[0]) == 0


@pytest.mark.parametrize("n_new", [1, 8])
@pytest.mark.parametrize("bad", BAD)
def test_forward_cached_rejects_a_query(rng, bad, n_new):
    backend = LongSightAttention(CONFIG)
    cache = KVCache(TINY)
    backend.prepare_cache(cache)
    _filled(cache, rng)
    q = _poisoned(rng, (TINY.n_q_heads, n_new, D_HEAD), bad)
    with pytest.raises(NonFiniteError):
        backend.forward_cached(0, q, cache)


@pytest.mark.parametrize("bad", BAD)
def test_stacked_decode_rejects_one_bad_session(rng, bad):
    """One poisoned query of a stacked call raises for the call, and so
    does one poisoned K/V row appended to a session of the stack."""
    backend = LongSightAttention(CONFIG)
    pool = PagedKVPool(TINY, n_blocks=64, block_tokens=4)
    caches = [KVCache(TINY), pool.new_cache(), pool.new_cache()]
    for n_ctx, cache in zip((30, 9, 41), caches):
        backend.prepare_cache(cache)
        _filled(cache, rng, n_ctx)
    qs = rng.normal(size=(len(caches), TINY.n_q_heads, 1, D_HEAD))
    out = backend.forward_cached_batch(0, qs, caches)
    bad_qs = qs.copy()
    bad_qs[1, 2, 0, 5] = bad
    with pytest.raises(NonFiniteError):
        backend.forward_cached_batch(0, bad_qs, caches)
    k = rng.normal(size=(TINY.n_kv_heads, 1, D_HEAD))
    k[0, 0, 0] = bad
    with pytest.raises(NonFiniteError):
        caches[2].append(0, k, np.zeros_like(k))
    np.testing.assert_array_equal(
        backend.forward_cached_batch(0, qs, caches), out)
