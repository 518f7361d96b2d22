"""A decode row's attention does not depend on what it is stacked with.

``LongSightAttention.forward_cached_batch`` gives every session's row a
layout that is a function of the config and of *that session's* context
length only, so a row's BLAS call shapes and reduction trees are the same
whether the session is stepped alone or stacked with any neighbours.  The
property comes first: each session's output is ``array_equal`` between a
stack of one and any other stack — at every layout edge, for plain,
contiguous-paged and prefix-attached (non-contiguous) caches in one
stack, for a reduced ``kv_dtype``, ITQ and per-query-head thresholds.
Then the oracle: selections, ``FilterStats`` and the ``attention.*``
counters equal :class:`~repro.core.reference.ReferenceAttention`'s
exactly in both layouts, outputs to round-off.

CI runs this file twice, under the default BLAS thread count and under
``OPENBLAS_NUM_THREADS=1`` (the serving ledger pins one thread).
"""

import dataclasses
import functools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import LongSightConfig
from repro.core.hybrid import LongSightAttention
from repro.core.metrics import FilterStats
from repro.core.reference import ReferenceAttention
from repro.llm.config import ModelConfig
from repro.llm.kv_cache import KVCache
from repro.llm.model import Transformer
from repro.obs import MetricsRegistry, Obs, Tracer
from repro.serve.paged_kv import PagedKVPool
from tests.conftest import TINY
from tests.core.test_fast_equivalence import _rotation_bank

N_SINK, WINDOW, TOP_K = 2, 8, 6
D, P = N_SINK + WINDOW, TOP_K
#: Every layout edge (the panel stops being the whole context at D, the
#: row stops being the whole context at D + P), a context shorter than
#: the sinks, a 2k context, and two more pooled lengths so that a pooled
#: stack is ragged: spans of 7 / 290 / 690 / 2038 columns.
CONTEXTS = (1, D - 1, D, D + 1, D + P - 1, D + P, D + P + 1, 2048, 300, 700)
MC = ModelConfig(name="rows", vocab_size=8, n_layers=1, n_q_heads=4,
                 n_kv_heads=2, head_dim=16, d_ff=8)
BLOCK = 4
SHARED = 2 * BLOCK                  # tokens of the published prefix
#: name -> (model config, LongSight config overrides).
VARIANTS = {
    "base": (MC, {}),
    "float16": (dataclasses.replace(MC, kv_dtype="float16"), {}),
    "itq": (MC, {"use_itq": True}),
    "per_q_head": (MC, {"per_q_head_thresholds": True,
                        "thresholds": np.array([[0, 7, 9, 17]])}),
    # The pooled contexts take 1 / 2 / 3 / 8 key tiles: sessions of one
    # stack leave the tile loop at different tiles.
    "tiled": (MC, {"prefill_tile": 256}),
}


@dataclasses.dataclass
class Session:
    kind: str
    n_ctx: int
    q: np.ndarray
    cache: object
    solo: np.ndarray = None         # the row's output in a stack of one


@dataclasses.dataclass
class Library:
    config: LongSightConfig
    rotations: object
    sessions: list

    def backend(self, **kwargs) -> LongSightAttention:
        return LongSightAttention(self.config, rotations=self.rotations,
                                  **kwargs)


@functools.lru_cache(maxsize=None)
def library(variant: str) -> Library:
    """Every context x cache kind, built once (the routine only reads)."""
    mc, overrides = VARIANTS[variant]
    config = LongSightConfig(**{"window": WINDOW, "n_sink": N_SINK,
                                "top_k": TOP_K, "thresholds": 8,
                                **overrides})
    rotations = _rotation_bank(1, mc.n_kv_heads, mc.head_dim) \
        if config.use_itq else None
    lib = Library(config, rotations, [])
    backend = lib.backend()
    rng = np.random.default_rng(7)
    pool = PagedKVPool(mc, n_blocks=3 * (sum(CONTEXTS) // BLOCK + 8),
                       block_tokens=BLOCK, prefix_caching=True)
    tokens = np.arange(SHARED)
    head = rng.normal(size=(2, mc.n_kv_heads, SHARED, mc.head_dim))
    publisher = pool.new_cache()
    backend.prepare_cache(publisher)
    publisher.append(0, *head)
    assert publisher.publish_prefix(tokens) == SHARED // BLOCK
    for n_ctx in CONTEXTS:
        tail = rng.normal(size=(2, mc.n_kv_heads, max(n_ctx - SHARED, 0),
                                mc.head_dim))
        k, v = np.concatenate([head, tail], axis=2)[:, :, :n_ctx]
        q = rng.normal(size=(mc.n_q_heads, 1, mc.head_dim))
        for kind in ("plain", "paged", "attached"):
            if kind == "plain":
                cache = KVCache(mc)
                done = 0
            else:
                spacer = pool.new_cache()       # breaks block adjacency
                spacer.ensure_tokens(1)
                cache = pool.new_cache()
                done = cache.attach_prefix(tokens[:n_ctx]) \
                    if kind == "attached" else 0
            backend.prepare_cache(cache)
            cache.append(0, k[:, done:], v[:, done:])
            if kind == "attached" and n_ctx > SHARED:
                assert done == SHARED and not cache.contiguous
            lib.sessions.append(Session(kind, n_ctx, q, cache))
    for session in lib.sessions:
        session.solo = backend.forward_cached_batch(
            0, [session.q], [session.cache])[0]
    return lib


def _stack(backend, sessions):
    return backend.forward_cached_batch(0, [s.q for s in sessions],
                                        [s.cache for s in sessions])


# -- the property ---------------------------------------------------------------

@pytest.mark.parametrize("variant", sorted(VARIANTS))
@settings(max_examples=40, deadline=None)
@given(picks=st.lists(st.integers(0, 3 * len(CONTEXTS) - 1), min_size=1,
                      max_size=9))
def test_row_is_independent_of_the_stack(variant, picks):
    """Batch sizes 1-9, any order, any neighbours (repeats included)."""
    lib = library(variant)
    sessions = [lib.sessions[i] for i in picks]
    out = _stack(lib.backend(), sessions)
    for row, session in zip(out, sessions):
        np.testing.assert_array_equal(
            row, session.solo,
            err_msg=f"{session.kind} cache, context {session.n_ctx}")


@pytest.mark.parametrize("variant", sorted(VARIANTS))
def test_every_context_and_cache_kind_in_one_stack(variant):
    lib = library(variant)
    backend = lib.backend()
    for sessions in (lib.sessions, lib.sessions[::-1]):
        for row, session in zip(_stack(backend, sessions), sessions):
            np.testing.assert_array_equal(row, session.solo)
    # The three cache kinds hold the same K/V, so they agree bit for bit.
    by_context = {}
    for session in lib.sessions:
        by_context.setdefault(session.n_ctx, []).append(session)
    for same in by_context.values():
        assert {s.kind for s in same} == {"plain", "paged", "attached"}
        for session in same[1:]:
            np.testing.assert_array_equal(session.solo, same[0].solo)


def test_solo_entry_points_are_the_routine():
    """``forward_cached`` and stateless ``forward`` at one query are the
    decode routine at one session."""
    lib = library("base")
    backend = lib.backend()
    for session in lib.sessions:
        kv = session.cache.layers[0]
        np.testing.assert_array_equal(
            backend.forward_cached(0, session.q, session.cache),
            session.solo)
        np.testing.assert_array_equal(
            backend.forward(0, session.q, kv.keys, kv.values), session.solo)


def test_layout_is_chosen_from_the_context_alone():
    layout = library("base").backend()._row_layout
    assert [layout(n) for n in (1, D - 1, D)] == [(D, False)] * 3
    assert [layout(n) for n in (D + 1, D + P - 1, D + P)] \
        == [(D + P, False)] * 3
    assert [layout(n) for n in (D + P + 1, 2048)] == [(D, True)] * 2


def _sign_controlled_session(rng, n_ctx, tile, per_tile):
    """A plain-cache session whose filter passes exactly the keys named:
    ``per_tile[kv_head]`` offsets into every ``tile``-wide key tile of the
    sparse span.  Both query heads of a group carry the KV head's sign
    pattern (concordance 16 with a passing key, 0 with any other)."""
    signs = rng.choice([-1.0, 1.0], size=(MC.n_kv_heads, 1, MC.head_dim))
    magnitude = lambda *shape: rng.uniform(0.5, 2.0, size=shape)
    k = -signs * magnitude(MC.n_kv_heads, n_ctx, MC.head_dim)
    for kv_head, offsets in enumerate(per_tile):
        for t0 in range(N_SINK, n_ctx - WINDOW, tile):
            cols = t0 + np.asarray(offsets)
            k[kv_head, cols[cols < n_ctx - WINDOW]] *= -1.0
    v = rng.normal(size=k.shape)
    q = (np.repeat(signs, MC.n_q_heads // MC.n_kv_heads, axis=0)
         * magnitude(MC.n_q_heads, 1, MC.head_dim))
    cache = KVCache(MC)
    cache.append(0, k, v)
    return Session("plain", n_ctx, q, cache)


def test_pool_row_does_not_keep_the_holes_of_its_stack():
    """A multi-tile session that never fills its pool: 7 tiles, 2 and 1
    survivors per tile on its two KV heads, 14 and 7 in all under
    ``top_k`` = 24.  ``pool ++ tile`` without re-compaction leaves each
    tile's survivors at offsets fixed by the widest row *of the stack* —
    multiples of 2 alone, of 3 beside the second session, re-compacted by
    the third's top-k — and softmax sums a row by offset.  The pool row
    is canonical instead: left-aligned, whatever rides along."""
    tile = 64
    config = LongSightConfig(window=WINDOW, n_sink=N_SINK, top_k=24,
                             thresholds=8, prefill_tile=tile)
    rng = np.random.default_rng(11)
    sparse = _sign_controlled_session(rng, 400, tile, [(3, 5), (1,)])
    few = _sign_controlled_session(rng, 500, tile, [(0, 2, 4), (1, 3)])
    many = _sign_controlled_session(rng, 450, tile, [range(10), range(9)])
    backend = LongSightAttention(config)
    for session in (sparse, few, many):
        backend.prepare_cache(session.cache)
        session.solo = _stack(backend, [session])[0]
    for stack in ([few, sparse], [sparse, many], [many, few, sparse, sparse]):
        for row, session in zip(_stack(backend, stack), stack):
            np.testing.assert_array_equal(row, session.solo)
    # The case is the one described: every tile contributes, nothing of
    # the sparse session is ever dropped, the third session's pool fills.
    lib = Library(config, None, [])
    fast = _measured(LongSightAttention, lib, [sparse, many])
    ref = _measured(ReferenceAttention, lib, [sparse, many])
    for sel_f, sel_r in zip(fast[1], ref[1]):
        for key in sel_r:
            np.testing.assert_array_equal(sel_f[key], sel_r[key])
    assert [int(fast[1][0][(0, h)].sum()) for h in range(4)] == [14, 14, 7, 7]
    assert [int(fast[1][1][(0, h)].sum()) for h in range(4)] == [24] * 4
    _assert_stats_equal(fast[2], ref[2])
    for out_f, out_r in zip(fast[0], ref[0]):
        np.testing.assert_allclose(out_f, out_r, atol=1e-12)


def test_ledger_geometry_edges():
    """The serving ledger's shape: D = 144, P = 128, head_dim 32."""
    mc = ModelConfig(name="ledger", vocab_size=8, n_layers=1, n_q_heads=8,
                     n_kv_heads=2, head_dim=32, d_ff=8)
    backend = LongSightAttention(
        LongSightConfig(window=128, n_sink=16, top_k=128, thresholds=20))
    rng = np.random.default_rng(3)
    qs, caches = [], []
    for n_ctx in (60, 143, 144, 145, 200, 271, 272, 273, 700):
        cache = KVCache(mc)
        backend.prepare_cache(cache)
        k, v = rng.normal(size=(2, mc.n_kv_heads, n_ctx, mc.head_dim))
        cache.append(0, k + 0.4, v)
        caches.append(cache)
        qs.append(rng.normal(size=(mc.n_q_heads, 1, mc.head_dim)))
    solo = [backend.forward_cached_batch(0, [q], [c])[0]
            for q, c in zip(qs, caches)]
    order = rng.permutation(len(qs))
    out = backend.forward_cached_batch(0, [qs[i] for i in order],
                                       [caches[i] for i in order])
    for row, i in zip(out, order):
        np.testing.assert_array_equal(row, solo[i])


# -- the oracle -----------------------------------------------------------------

def _fresh_obs():
    return Obs(MetricsRegistry(enabled=True), Tracer(enabled=False))


def _measured(cls, lib, sessions):
    """Outputs, selections, FilterStats and metrics of ``sessions``, one
    call per session on one measuring backend."""
    mc = VARIANTS["base"][0]
    heads = mc.n_q_heads if lib.config.per_q_head_thresholds \
        else mc.n_kv_heads
    backend = cls(lib.config, rotations=lib.rotations,
                  stats=FilterStats(1, heads), obs=_fresh_obs())
    outs, selections = [], []
    for session in sessions:
        backend.selection_capture = {}
        outs.append(backend.forward_cached(0, session.q, session.cache))
        selections.append(backend.selection_capture)
    return outs, selections, backend.stats, backend.obs.metrics.snapshot()


def _assert_stats_equal(a: FilterStats, b: FilterStats):
    for name in ("candidates", "passed", "retrieved", "queries"):
        np.testing.assert_array_equal(getattr(a, name), getattr(b, name))


@pytest.mark.parametrize("variant", sorted(VARIANTS))
def test_selections_and_counters_equal_the_reference(variant):
    lib = library(variant)
    fast = _measured(LongSightAttention, lib, lib.sessions)
    ref = _measured(ReferenceAttention, lib, lib.sessions)
    sparse_rows = 0
    for session, out_f, out_r, sel_f, sel_r in zip(
            lib.sessions, fast[0], ref[0], fast[1], ref[1]):
        np.testing.assert_array_equal(out_f, session.solo)
        np.testing.assert_allclose(out_f, out_r, atol=1e-12)
        assert set(sel_f) == set(sel_r)
        assert bool(sel_f) == (session.n_ctx > D)
        for key in sel_r:
            np.testing.assert_array_equal(sel_f[key], sel_r[key])
        sparse_rows += bool(sel_f)
    assert sparse_rows == 3 * sum(n > D for n in CONTEXTS)
    _assert_stats_equal(fast[2], ref[2])
    assert fast[2].retrieved.sum() > 0
    assert fast[3] == ref[3]                    # attention.* and the histogram
    assert fast[3]["counters"]["attention.forwards"] == len(lib.sessions)


def test_stacked_counters_equal_the_per_session_values():
    """One measuring backend, every session in one call: ``FilterStats``
    and ``attention.*`` fill as they do session by session."""
    lib = library("base")
    _, _, solo_stats, solo_metrics = _measured(
        LongSightAttention, lib, lib.sessions)
    backend = lib.backend(stats=FilterStats(1, MC.n_kv_heads),
                          obs=_fresh_obs())
    backend.selection_capture = {}
    out = _stack(backend, lib.sessions)
    for row, session in zip(out, lib.sessions):
        np.testing.assert_array_equal(row, session.solo)
    _assert_stats_equal(backend.stats, solo_stats)
    assert backend.obs.metrics.snapshot() == solo_metrics


class _SelectionLog(dict):
    """A ``selection_capture`` that keeps every mask written to it (one
    backend shared by a stack overwrites ``(layer, head)`` per session)."""

    def __init__(self):
        super().__init__()
        self.written = []

    def __setitem__(self, key, mask):
        self.written.append((key, mask))
        super().__setitem__(key, mask)


@pytest.mark.parametrize("variant", ["base", "tiled"])
def test_measuring_backend_shared_by_a_pooled_stack(variant):
    """One backend with ``stats`` and a ``selection_capture``, every
    pooled session of the library in one call — the same stacked stages,
    no per-session fallback: each session's selections, the
    ``FilterStats`` and the ``attention.*`` snapshot equal the
    reference's, taken session by session."""
    lib = library(variant)
    sessions = [s for s in lib.sessions if s.n_ctx > D + P]
    assert len(sessions) == 3 * 4
    ref_outs, ref_selections, ref_stats, ref_metrics = _measured(
        ReferenceAttention, lib, sessions)
    backend = lib.backend(stats=FilterStats(1, MC.n_kv_heads),
                          obs=_fresh_obs())
    backend.selection_capture = log = _SelectionLog()
    for row, session, out_r in zip(_stack(backend, sessions), sessions,
                                   ref_outs):
        np.testing.assert_array_equal(row, session.solo)
        np.testing.assert_allclose(row, out_r, atol=1e-12)
    _assert_stats_equal(backend.stats, ref_stats)
    assert backend.obs.metrics.snapshot() == ref_metrics
    # A mask is as wide as its session's context, and the three cache
    # kinds of one context hold the same K/V: every mask written for
    # (head, context) must be the reference's for that pair.
    want = {(key, s.n_ctx): mask for s, selection in zip(
        sessions, ref_selections) for key, mask in selection.items()}
    assert len(log.written) == len(sessions) * MC.n_q_heads
    seen = {}
    for key, mask in log.written:
        np.testing.assert_array_equal(mask, want[key, mask.shape[1]])
        seen[key, mask.shape[1]] = seen.get((key, mask.shape[1]), 0) + 1
    assert seen == dict.fromkeys(want, 3)


def test_stack_key_groups_compatible_instances_only():
    lib = library("base")
    a, b = lib.backend(obs=_fresh_obs()), lib.backend(obs=_fresh_obs())
    assert a.stack_key() != b.stack_key()               # different obs
    b = LongSightAttention(a.config, obs=a.obs)
    assert a.stack_key() == b.stack_key()               # the engine's shape
    variant = a.with_config(a.config.replace(top_k=2))
    assert variant.stack_key() != a.stack_key()
    measuring = LongSightAttention(a.config, obs=a.obs,
                                   stats=FilterStats(1, 2))
    assert measuring.stack_key() not in (a.stack_key(), b.stack_key())
    b.selection_capture = {}
    assert b.stack_key() != a.stack_key()


# -- through the model: a brownout variant beside its base ------------------------

def test_variant_beside_its_base_in_one_batch(stacked_calls, rng):
    """Two requests' base backends and their two brownout variants: one
    stacked call per (config, layer), logits equal to stepping alone."""
    model = Transformer(TINY, seed=7)
    base_cfg = LongSightConfig(window=8, n_sink=2, top_k=4, thresholds=3)
    low_cfg = base_cfg.replace(top_k=2, thresholds=5)
    bases = [LongSightAttention(base_cfg), LongSightAttention(base_cfg)]
    backends = [bases[0], bases[0].with_config(low_cfg), bases[1],
                bases[1].with_config(low_cfg)]
    solo_caches, batch_caches = [], []
    for length in (40, 33, 17, 57):
        prompt = rng.integers(0, TINY.vocab_size, size=length)
        for caches in (solo_caches, batch_caches):
            caches.append(KVCache(TINY))
            model.prefill(prompt, caches[-1], backend=bases[0])
    tokens = [1, 2, 3, 4]
    stacked_calls.clear()
    batch = model.decode_step_batch(tokens, batch_caches, backends)
    assert sorted(stacked_calls, key=lambda c: (c[1], c[0].top_k)) == [
        (low_cfg, 0, 2), (base_cfg, 0, 2), (low_cfg, 1, 2), (base_cfg, 1, 2)]
    for i, backend in enumerate(backends):
        np.testing.assert_array_equal(
            batch[i], model.decode_step(tokens[i], solo_caches[i],
                                        backend=backend))
