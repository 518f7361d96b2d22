"""The one KV store against a model, over every row source.

The model is plain numpy: per layer, the appended K/V chunks cast to the
store dtype and concatenated; signs are ``pack_signs`` of the (rotated)
model keys.  A hypothesis state machine interleaves ``reserve``, ``append``
(0, 1, many tokens) and ``enable_sign_cache`` (before, between and after
appends; raw and rotated) and after every step compares every read the
attention backends make — whole-context arrays, the per-head row readers,
``window_view`` below, at and above ``n_sink + window``
— bit for bit, over the four row sources: private arrays, a contiguous
paged session, a paged session interleaved with a second one, and a paged
session attached to a published prefix (signed or unsigned publisher).
The parity tests in ``tests/serve/test_paged_kv.py`` pin the two row
sources against each other; these pin the store against arithmetic.
"""

import contextlib
import dataclasses
import gc
import weakref

import numpy as np
import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (RuleBasedStateMachine, initialize, invariant,
                                 rule)

import repro.core.hybrid as hybrid
from repro.core.config import LongSightConfig
from repro.core.hybrid import LongSightAttention
from repro.core.itq import ItqRotations
from repro.core.scf import pack_signs
from repro.durable import DurableRun
from repro.errors import NonFiniteError
from repro.llm.kv_cache import KVCache, LayerKV, append_rows
from repro.llm.model import Transformer
from repro.serve.engine import ServeEngine
from repro.serve.paged_kv import PagedKVPool, block_rows
from repro.serve.scheduler import ServeRequest
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
            ids = cache.state()["blocks"]
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
                if n > n_sink + window:
                    dense = np.r_[0:n_sink, n - window:n]
                got_k, got_v, got_pos = cache.window_view(layer, window, n_sink)
                self._same(got_pos, dense)
                self._same(got_k, self.k[layer][:, dense])
                self._same(got_v, self.v[layer][:, dense])

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


@contextlib.contextmanager
def _no_cycle_collector():
    """Only reference counting frees what is dropped inside the block."""
    gc.collect()
    gc.disable()
    try:
        yield
    finally:
        gc.enable()


def _fill(cache, rng, n_tokens):
    k = rng.normal(size=(TINY.n_kv_heads, n_tokens, TINY.head_dim))
    for layer in range(TINY.n_layers):
        cache.append(layer, k, -k)


LS = LongSightConfig(window=8, n_sink=4, top_k=12, thresholds=3)


def _requests(rng):
    return [ServeRequest(request_id=i, max_new_tokens=8,
                         prompt=rng.integers(0, TINY.vocab_size, size=n))
            for i, n in enumerate((20, 33, 27))]


def _engine(model, n_blocks=32):
    pool = PagedKVPool(TINY, n_blocks=n_blocks, block_tokens=BT,
                       prefix_caching=True)
    return ServeEngine(model, pool, lambda request: LongSightAttention(LS))


class TestRelease:
    """Every row source gives its storage back without the cycle
    collector: a dropped cache, a dropped stateless-``forward`` session
    and a dropped run (its scheduler, requests and caches) free the arenas
    the moment the last reference goes."""

    @pytest.fixture(scope="class")
    def model(self):
        return Transformer(TINY, seed=0)

    def test_dropped_private_cache_is_freed_by_reference_counting(self):
        with _no_cycle_collector():
            layer = LayerKV(2, 8)
            cache = KVCache(TINY)
            cache.enable_sign_cache()
            refs = [weakref.ref(layer), weakref.ref(cache),
                    weakref.ref(cache.layers[0])]
            arena = weakref.ref(cache.layers[0].keys.base)
            del layer, cache
            assert [ref() for ref in refs] == [None, None, None]
            assert arena() is None

    def test_dropped_paged_cache_frees_its_pool(self, rng):
        with _no_cycle_collector():
            pool = PagedKVPool(TINY, n_blocks=8, block_tokens=BT)
            cache = pool.new_cache()
            cache.enable_sign_cache()
            _fill(cache, rng, 2 * BT + 1)
            refs = [weakref.ref(pool), weakref.ref(cache),
                    weakref.ref(cache.layers[0])]
            del pool, cache
            assert [ref() for ref in refs] == [None, None, None]

    def test_stateless_forward_frees_its_array_cache(self, rng,
                                                     monkeypatch):
        made = []

        class Recorded(hybrid._ArrayCache):
            def __init__(self, *args):
                super().__init__(*args)
                made.append(weakref.ref(self))

        monkeypatch.setattr(hybrid, "_ArrayCache", Recorded)
        backend = LongSightAttention(LS)
        k = rng.normal(size=(TINY.n_kv_heads, 40, TINY.head_dim))
        with _no_cycle_collector():
            for n_new in (1, 40):
                q = rng.normal(size=(TINY.n_q_heads, n_new, TINY.head_dim))
                backend.forward(0, q, k, k)
            assert len(made) == 2 and [ref() for ref in made] == [None, None]

    def test_dropped_engine_run_frees_its_pool(self, model, rng):
        with _no_cycle_collector():
            engine = _engine(model)
            run = engine.start(_requests(rng))
            for _ in range(4):
                run.step()
            assert engine.pool.n_used and run.scheduler.running
            pool = weakref.ref(engine.pool)
            del engine, run
            assert pool() is None

    def test_dropped_durable_run_frees_its_pool(self, model, rng, tmp_path):
        with _no_cycle_collector():
            engine = _engine(model)
            run = DurableRun(engine, _requests(rng), tmp_path,
                             snapshot_every=2)
            for _ in range(5):
                run.step()
            assert engine.pool.n_used and run.scheduler.running
            pool = weakref.ref(engine.pool)
            run.wal.close()
            del engine, run
            assert pool() is None

    def test_fresh_pool_arenas_read_zero_and_are_writable(self):
        pool = PagedKVPool(TINY, n_blocks=3, block_tokens=BT)
        for arenas in (pool.k_arenas, pool.v_arenas, pool.sign_arenas):
            for arena in arenas:
                assert arena.flags.writeable and not arena.any()
                arena[:, -1] = 1
                assert arena[:, -1].all() and not arena[:, :-1].any()

    def test_released_block_keeps_its_rows_until_overwritten(self, rng):
        """A snapshot writes every used block's arena rows, stale tail
        included, so a recycled block must read what its last owner wrote
        until the new owner writes over it."""
        pool = PagedKVPool(TINY, n_blocks=2, block_tokens=BT)
        first = pool.new_cache()
        first.enable_sign_cache()
        _fill(first, rng, BT)
        (block,) = first._blocks
        rows = block_rows([block], BT)
        written = [arena[:, rows].copy() for arena in
                   pool.k_arenas + pool.v_arenas + pool.sign_arenas]
        assert all(arena.any() for arena in written)
        first.free()
        second = pool.new_cache()
        second.reserve(BT)
        assert second._blocks == [block]
        arenas = pool.k_arenas + pool.v_arenas + pool.sign_arenas
        for arena, old in zip(arenas, written):
            np.testing.assert_array_equal(arena[:, rows], old)
        _fill(second, rng, 1)
        for arena, old in zip(pool.k_arenas + pool.v_arenas, written):
            assert not np.array_equal(arena[:, rows[0]], old[:, 0])
            np.testing.assert_array_equal(arena[:, rows[1:]], old[:, 1:])

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


def _rotation_bank(seed):
    bank = ItqRotations(TINY.n_layers, TINY.n_kv_heads, TINY.head_dim)
    bank.matrices = np.linalg.qr(np.random.default_rng(seed).normal(
        size=bank.matrices.shape))[0]
    return bank


class TestAppendRows:
    """A decode step's K/V rows are one write per layer: the sessions of
    one pool take theirs in one scatter per arena and one sign pack, and
    every row is checked before any is written."""

    def _stores(self, rng):
        """Paged sessions of one pool (contiguous, interleaved, prefix-
        attached, rotated, unsigned) and two private caches."""
        pool = PagedKVPool(TINY, n_blocks=128, block_tokens=BT,
                           prefix_caching=True)
        bank = _rotation_bank(3)
        prefix = np.arange(PREFIX)
        publisher = pool.new_cache()
        publisher.enable_sign_cache(bank)
        _fill(publisher, rng, PREFIX)
        publisher.publish_prefix(prefix)
        caches = []
        for n, signs in ((5, bank), (9, bank), (PREFIX + 2, bank),
                         (7, None), (3, "off")):
            cache = pool.new_cache()
            if n > PREFIX:
                assert cache.attach_prefix(prefix) == PREFIX
            if signs != "off":
                cache.enable_sign_cache(signs)
            _fill(cache, rng, n - len(cache))
            pool.new_cache().ensure_tokens(1)       # interleave the blocks
            caches.append(cache)
        for signs in (bank, None):
            cache = KVCache(TINY)
            cache.enable_sign_cache(signs)
            _fill(cache, rng, 6)
            caches.append(cache)
        return pool, caches

    def _reads(self, caches):
        return [(len(kv), kv.signs_packed_total, kv.keys, kv.values,
                 kv.packed_signs if kv.sign_cache_enabled else None)
                for cache in caches for kv in cache.layers]

    def test_one_write_equals_an_append_per_store(self, rng):
        _, batched = self._stores(np.random.default_rng(5))
        _, single = self._stores(np.random.default_rng(5))
        for layer in range(TINY.n_layers):
            k, v = rng.normal(size=(2, TINY.n_kv_heads, len(batched),
                                    TINY.head_dim))
            append_rows([c.layers[layer] for c in batched], k, v)
            for i, cache in enumerate(single):
                cache.append(layer, k[:, i:i + 1], v[:, i:i + 1])
        for got, want in zip(self._reads(batched), self._reads(single)):
            assert got[:2] == want[:2]
            for a, b in zip(got[2:], want[2:]):
                np.testing.assert_array_equal(a, b)

    def test_one_scatter_and_one_pack_per_pool(self, rng, monkeypatch):
        import repro.llm.kv_cache as kv_cache

        _, caches = self._stores(rng)
        packs = []
        pack = kv_cache.pack_signs
        monkeypatch.setattr(kv_cache, "pack_signs",
                            lambda keys: packs.append(keys.shape) or
                            pack(keys))
        k = rng.normal(size=(TINY.n_kv_heads, len(caches), TINY.head_dim))
        append_rows([c.layers[0] for c in caches], k, -k)
        # Four signed paged sessions in one pack; each private cache its
        # own; the unsigned session packs nothing.
        assert sorted(shape[1] for shape in packs) == [1, 1, 4]

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_a_bad_row_rejects_the_whole_write(self, rng, bad):
        pool, caches = self._stores(rng)
        before = self._reads(caches)
        free = pool.n_free
        k = rng.normal(size=(TINY.n_kv_heads, len(caches), TINY.head_dim))
        v = k.copy()
        v[1, len(caches) - 1, 0] = bad
        with pytest.raises(NonFiniteError):
            append_rows([c.layers[0] for c in caches], k, v)
        assert pool.n_free == free
        for got, want in zip(self._reads(caches), before):
            assert got[:2] == want[:2]
            for a, b in zip(got[2:], want[2:]):
                np.testing.assert_array_equal(a, b)

    def test_decode_step_writes_once_per_layer(self, rng, monkeypatch):
        import repro.llm.model as model_module

        model = Transformer(TINY, seed=0)
        pool = PagedKVPool(TINY, n_blocks=64, block_tokens=BT)
        backend = LongSightAttention(LS)
        caches = []
        for n in (5, 17, 30):
            caches.append(pool.new_cache())
            model.prefill(rng.integers(0, TINY.vocab_size, size=n),
                          caches[-1], backend=backend)
        writes = []
        monkeypatch.setattr(model_module, "append_rows",
                            lambda stores, k, v: writes.append(len(stores))
                            or append_rows(stores, k, v))
        model.decode_step_batch([1, 2, 3], caches, backend)
        assert writes == [3] * TINY.n_layers
