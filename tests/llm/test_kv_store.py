"""The one KV store against a model, over every row source.

The model is plain numpy: per layer, the appended K/V chunks cast to the
store dtype and concatenated; signs are ``pack_signs`` of the (rotated)
model keys.  A hypothesis state machine interleaves ``reserve``, ``append``
(0, 1, many tokens) and ``enable_sign_cache`` (before, between and after
appends; raw and rotated) and after every step compares every read the
attention backends make — whole-context arrays, the per-head row readers,
``window_view`` / ``offloaded_view`` below, at and above ``n_sink + window``
— bit for bit, over the four row sources: private arrays, a contiguous
paged session, a paged session interleaved with a second one, and a paged
session attached to a published prefix (signed or unsigned publisher).
The parity tests in ``tests/serve/test_paged_kv.py`` pin the two row
sources against each other; these pin the store against arithmetic.
"""

import dataclasses
import gc
import weakref

import numpy as np
import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (RuleBasedStateMachine, initialize, invariant,
                                 rule)

from repro.core.itq import ItqRotations
from repro.core.scf import pack_signs
from repro.llm.kv_cache import KVCache, LayerKV
from repro.serve.paged_kv import PagedKVPool
from tests.conftest import TINY

BT = 4                      # block_tokens of the paged sources
PREFIX = 3 * BT             # tokens the prefix publisher shares
SEEDS = st.integers(0, 2**32 - 1)


def _chunk(seed, n, layer):
    """float64 K/V for ``n`` tokens: the store casts, as the model does."""
    rng = np.random.default_rng([seed, layer])
    shape = (TINY.n_kv_heads, n, TINY.head_dim)
    return rng.normal(size=shape), rng.normal(size=shape)


class KVStoreMachine(RuleBasedStateMachine):
    KIND = "private"        # private | contiguous | interleaved | prefix
    DTYPE = "float32"

    def __init__(self):
        super().__init__()
        self.config = dataclasses.replace(TINY, kv_dtype=self.DTYPE)
        self.dtype = np.dtype(self.DTYPE)
        self.pool = None
        self.others = []            # paged sessions that are not under test

    # -- set-up ---------------------------------------------------------------

    @initialize(seed=SEEDS, rotated=st.booleans(), signed=st.booleans())
    def build(self, seed, rotated, signed):
        cfg = self.config
        self.bank = None
        if rotated:
            self.bank = ItqRotations(cfg.n_layers, cfg.n_kv_heads,
                                     cfg.head_dim)
            self.bank.matrices = np.linalg.qr(np.random.default_rng(
                seed).normal(size=self.bank.matrices.shape))[0]
        self.k = [np.zeros((cfg.n_kv_heads, 0, cfg.head_dim), self.dtype)
                  for _ in range(cfg.n_layers)]
        self.v = [k.copy() for k in self.k]
        self.enabled = False
        self.packed = 0             # tokens this session packed, per layer
        if self.KIND == "private":
            self.cache = KVCache(cfg)
            return
        self.pool = PagedKVPool(cfg, n_blocks=256, block_tokens=BT,
                                prefix_caching=True)
        if self.KIND == "prefix":
            tokens = np.arange(PREFIX) + seed % 7
            publisher = self.pool.new_cache()
            if signed:
                publisher.enable_sign_cache(self.bank)
            for layer in range(cfg.n_layers):
                publisher.append(layer, *_chunk(seed, PREFIX, layer))
            assert publisher.publish_prefix(tokens) == PREFIX // BT
            self.others.append(publisher)
            self._take_a_block()    # the session's own blocks are not adjacent
            self.cache = self.pool.new_cache()
            assert self.cache.attach_prefix(tokens) == PREFIX
            assert self.cache.prefix_signed_tokens == signed * PREFIX
            for layer in range(cfg.n_layers):
                self._model_append(layer, *_chunk(seed, PREFIX, layer))
        else:
            self.cache = self.pool.new_cache()

    def _take_a_block(self):
        other = self.pool.new_cache()
        other.ensure_tokens(1)
        self.others.append(other)

    def _before_growth(self):
        if self.KIND in ("interleaved", "prefix"):
            self._take_a_block()    # the next block is not the adjacent one

    def _model_append(self, layer, k, v):
        self.k[layer] = np.concatenate(
            [self.k[layer], k.astype(self.dtype)], axis=1)
        self.v[layer] = np.concatenate(
            [self.v[layer], v.astype(self.dtype)], axis=1)

    # -- rules ----------------------------------------------------------------

    @rule(extra=st.integers(0, 3 * BT))
    def reserve(self, extra):
        self._before_growth()
        self.cache.reserve(len(self.cache) + extra)

    @rule(seed=SEEDS, n=st.sampled_from([0, 1, 1, 2, BT, 2 * BT + 1, 11]))
    def append(self, seed, n):
        self._before_growth()
        for layer in range(self.config.n_layers):
            k, v = _chunk(seed, n, layer)
            self.cache.append(layer, k, v)
            self._model_append(layer, k, v)
        if self.enabled:
            self.packed += n

    @rule()
    def enable_sign_cache(self):
        if not self.enabled:        # repeated enables are idempotent
            self.packed += len(self.cache) - getattr(
                self.cache, "prefix_signed_tokens", 0)
        self.cache.enable_sign_cache(self.bank)
        self.enabled = True

    # -- the model's answers --------------------------------------------------

    def _model_signs(self, layer):
        keys = self.k[layer]
        if self.bank is not None:
            keys = np.matmul(keys, self.bank.matrices[layer])
        return pack_signs(keys)

    @staticmethod
    def _same(got, want):
        np.testing.assert_array_equal(got, want)
        assert got.dtype == want.dtype and got.shape == want.shape

    @invariant()
    def reads_equal_the_model(self):
        cache = self.cache
        n = self.k[0].shape[1]
        assert len(cache) == n and cache.sign_cache_enabled == self.enabled
        if self.pool is not None:   # the flag is a function of the block list
            ids = cache.block_ids
            assert cache.contiguous == (
                ids == list(range(ids[0], ids[0] + len(ids))) if ids else True)
            assert cache.contiguous or self.KIND != "contiguous"
        index = np.random.default_rng(n).integers(-n, n, size=7) \
            if n else None
        spans = (slice(None), slice(n // 3, n - n // 4), slice(n - 1, None),
                 slice(0, 0))
        for layer, kv in enumerate(cache.layers):
            assert kv.signs_packed_total == self.packed
            arrays = [(self.k[layer], kv.keys, kv.key_rows),
                      (self.v[layer], kv.values, kv.value_rows)]
            if self.enabled:
                arrays.append((self._model_signs(layer), kv.packed_signs,
                               kv.sign_rows))
            else:
                with pytest.raises(RuntimeError):
                    kv.packed_signs
                with pytest.raises(RuntimeError):
                    kv.sign_rows(0)
            for want, whole, rows in arrays:
                self._same(whole, want)
                for head in range(self.config.n_kv_heads):
                    reader = rows(head)
                    for span in spans:
                        self._same(reader[span], want[head][span])
                    if n:
                        for at in (index, index[:, None]):
                            self._same(reader.take(at, axis=0),
                                       want[head].take(at, axis=0))
                        self._same(
                            reader.take(index * 3, axis=0, mode="clip"),
                            want[head].take(index * 3, axis=0, mode="clip"))
            # below, at and above n_sink + window
            for window, n_sink in ((n + 3, 2), (max(n - 2, 1), 2), (6, 2),
                                   (max(n // 2, 1), 1), (3, 0)):
                dense = np.arange(n)
                sparse = np.arange(0)
                if n > n_sink + window:
                    sparse = np.arange(n_sink, n - window)
                    dense = np.delete(dense, sparse)
                for view, pos in ((cache.window_view, dense),
                                  (cache.offloaded_view, sparse)):
                    got_k, got_v, got_pos = view(layer, window, n_sink)
                    self._same(got_pos, pos)
                    self._same(got_k, self.k[layer][:, pos])
                    self._same(got_v, self.v[layer][:, pos])

    def teardown(self):
        if self.pool is None:
            return
        for cache in [self.cache] + self.others:
            cache.free()
        assert self.pool.n_free == self.pool.n_blocks
        assert self.pool.shared_blocks == 0


def _case(kind, dtype="float32"):
    machine = type(f"KVStore_{kind}_{dtype}", (KVStoreMachine,),
                   {"KIND": kind, "DTYPE": dtype})
    machine.TestCase.settings = settings(
        max_examples=15, stateful_step_count=12, deadline=None)
    return machine.TestCase


TestPrivate = _case("private")
TestPagedContiguous = _case("contiguous")
TestPagedInterleaved = _case("interleaved")
TestPagedPrefixAttached = _case("prefix")
TestPrivateFloat16 = _case("private", "float16")
TestPagedPrefixAttachedFloat16 = _case("prefix", "float16")


class TestRelease:
    """Both row sources give their storage back without the cycle collector."""

    def test_dropped_private_cache_is_freed_by_reference_counting(self):
        gc.collect()
        gc.disable()
        try:
            layer = LayerKV(2, 8)
            cache = KVCache(TINY)
            cache.enable_sign_cache()
            refs = [weakref.ref(layer), weakref.ref(cache),
                    weakref.ref(cache.layers[0])]
            arena = weakref.ref(cache.layers[0].keys.base)
            del layer, cache
            assert [ref() for ref in refs] == [None, None, None]
            assert arena() is None
        finally:
            gc.enable()

    def test_freed_paged_cache_returns_its_blocks(self, rng):
        pool = PagedKVPool(TINY, n_blocks=8, block_tokens=BT)
        cache = pool.new_cache()
        k = rng.normal(size=(TINY.n_kv_heads, 2 * BT + 1, TINY.head_dim))
        for layer in range(TINY.n_layers):
            cache.append(layer, k, k)
        cache.reserve(5 * BT)
        assert pool.n_free == 3
        cache.free()
        assert pool.n_free == 8 and cache.freed and len(cache) == 0
