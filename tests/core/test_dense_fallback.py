"""The dense fallback is the hybrid kernel at ``top_k = 0``.

Nothing can be selected at ``top_k = 0``, so a row is the sinks + window
panel and stages 1-4 are skipped: the oracle first (outputs equal
:class:`~repro.core.reference.ReferenceAttention` at ``top_k = 0`` to
round-off, for prefill blocks and decode rows at every context edge and
both reduced ``kv_dtype`` widths), then what the row may touch (at most
``n_sink + window`` K/V rows per KV head, nothing of ``repro.core.scf`` /
``repro.core.topk``), then the ``tests/core/test_decode_rows.py``
property at this layout: a row's bits do not depend on its stack.

CI runs this file twice, under the default BLAS thread count and under
``OPENBLAS_NUM_THREADS=1`` (the serving ledger pins one thread).
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.core.hybrid as hybrid
from repro.core.config import LongSightConfig
from repro.core.hybrid import LongSightAttention, SlidingWindowAttention
from repro.core.reference import ReferenceAttention
from repro.llm.config import ModelConfig
from repro.llm.kv_cache import KVCache, SessionLayerKV
from repro.obs import MetricsRegistry, Obs, Tracer
from repro.serve.paged_kv import PagedKVPool

N_SINK, WINDOW = 3, 8
D = N_SINK + WINDOW
FLOOR = LongSightConfig(window=WINDOW, n_sink=N_SINK, top_k=0, thresholds=8)
MC = ModelConfig(name="floor", vocab_size=8, n_layers=1, n_q_heads=4,
                 n_kv_heads=2, head_dim=16, d_ff=8)
#: Below the sinks, below the window, around D, and far above it.
CONTEXTS = (1, N_SINK - 1, N_SINK, WINDOW - 1, D - 1, D, D + 1, 40, 700)
BLOCK = 4


def _cache(rng, n_ctx, kv_dtype="float32", pool=None):
    """A one-layer cache of ``n_ctx`` random K/V rows: plain, or paged
    behind a spacer block so that its rows are not one run."""
    if pool is None:
        cache = KVCache(dataclasses.replace(MC, kv_dtype=kv_dtype))
    else:
        pool.new_cache().ensure_tokens(1)
        cache = pool.new_cache()
        cache.ensure_tokens(BLOCK)              # one block, then the spacer
        pool.new_cache().ensure_tokens(1)
    cache.append(0, *rng.normal(size=(2, MC.n_kv_heads, n_ctx, MC.head_dim)))
    return cache


def _query(rng, n_new=1):
    return rng.normal(size=(MC.n_q_heads, n_new, MC.head_dim))


# -- the oracle -----------------------------------------------------------------

@settings(max_examples=60, deadline=None)
@given(n_ctx=st.sampled_from(CONTEXTS) | st.integers(1, 120),
       n_new=st.sampled_from((1, 2, 5, 17)),
       kv_dtype=st.sampled_from(("float32", "float16")),
       seed=st.integers(0, 2 ** 16))
def test_top_k_0_equals_the_reference(n_ctx, n_new, kv_dtype, seed):
    """Decode rows (one query) and prefill blocks (two or more)."""
    rng = np.random.default_rng(seed)
    n_new = min(n_new, n_ctx)
    cache = _cache(rng, n_ctx, kv_dtype)
    q = _query(rng, n_new)
    expected = ReferenceAttention(FLOOR).forward_cached(0, q, cache)
    out = LongSightAttention(FLOOR).forward_cached(0, q, cache)
    np.testing.assert_allclose(out, expected, atol=1e-12)
    # The public baseline and a full-quality backend's fallback are that
    # kernel: same bits.
    full = LongSightAttention(FLOOR.replace(top_k=6))
    for twin in (SlidingWindowAttention(window=WINDOW, n_sink=N_SINK),
                 full.dense_fallback()):
        np.testing.assert_array_equal(twin.forward_cached(0, q, cache), out)
    kv = cache.layers[0]
    np.testing.assert_array_equal(
        full.dense_fallback().forward(0, q, kv.keys, kv.values), out)


def test_top_k_0_records_dense_accesses_and_no_candidates():
    rng = np.random.default_rng(0)
    obs = Obs(MetricsRegistry(enabled=True), Tracer(enabled=False))
    backend = LongSightAttention(FLOOR, obs=obs)
    backend.forward_cached(0, _query(rng), _cache(rng, 700))
    backend.forward_cached(0, _query(rng, 5), _cache(rng, 40))
    snapshot = obs.metrics.snapshot()
    counters = snapshot["counters"]
    assert counters["attention.forwards"] == 2
    assert counters["attention.queries"] == 6 * MC.n_q_heads
    # One decode row at 700: D columns; five prefill rows at 36..40: D.
    assert counters["attention.dense.accesses"] == 6 * D * MC.n_q_heads
    assert counters["attention.sparse.candidates"] == 0
    assert counters["attention.sparse.selected"] == 0
    assert "attention.filter_ratio" not in snapshot["histograms"]


# -- what a row touches ---------------------------------------------------------

@pytest.fixture
def reads(monkeypatch):
    """Rows returned by every K/V/sign arena read of the test."""
    seen = []
    read = SessionLayerKV._read

    def spy(self, arena, index, *args, **kwargs):
        rows = read(self, arena, index, *args, **kwargs)
        seen.append(rows.shape[-2])
        return rows

    monkeypatch.setattr(SessionLayerKV, "_read", spy)
    return seen


@pytest.fixture
def no_sparse_stages(monkeypatch):
    def never(*args, **kwargs):
        raise AssertionError("a top_k = 0 row ran a sparse stage")

    monkeypatch.setattr(hybrid, "mismatches_packed", never)
    monkeypatch.setattr(hybrid, "top_k_mask", never)
    monkeypatch.setattr(hybrid, "pack_signs", never)


@pytest.mark.parametrize("paged", (False, True))
def test_decode_row_reads_the_panel_only(paged, reads, no_sparse_stages):
    rng = np.random.default_rng(1)
    pool = PagedKVPool(MC, n_blocks=256, block_tokens=BLOCK) if paged \
        else None
    cache = _cache(rng, 700, pool=pool)
    assert not (paged and cache.contiguous)     # rows read through the map
    backend = LongSightAttention(FLOOR)
    backend.prepare_cache(cache)
    assert not cache.sign_cache_enabled         # no sign is ever read
    reads.clear()
    backend.forward_cached_batch(0, [_query(rng)], [cache])
    assert reads == [D, D]                      # keys, values: D rows each


def test_prefill_block_runs_no_sparse_stage(no_sparse_stages):
    rng = np.random.default_rng(2)
    cache = _cache(rng, 300)
    out = LongSightAttention(FLOOR).forward_cached(0, _query(rng, 64), cache)
    assert np.isfinite(out).all()


# -- the property: a row does not depend on its stack ---------------------------

@pytest.fixture(scope="module")
def sessions():
    rng = np.random.default_rng(7)
    pool = PagedKVPool(MC, n_blocks=1024, block_tokens=BLOCK)
    backend = LongSightAttention(FLOOR)
    built = []
    for n_ctx in CONTEXTS:
        for kind in (None, pool):
            cache, q = _cache(rng, n_ctx, pool=kind), _query(rng)
            built.append((q, cache, backend.forward_cached_batch(
                0, [q], [cache])[0]))
    return built


@settings(max_examples=40, deadline=None)
@given(picks=st.lists(st.integers(0, 2 * len(CONTEXTS) - 1), min_size=1,
                      max_size=9))
def test_pinned_rows_stacked_equal_each_alone(sessions, picks):
    stack = [sessions[i] for i in picks]
    out = LongSightAttention(FLOOR).forward_cached_batch(
        0, [q for q, _, _ in stack], [cache for _, cache, _ in stack])
    for row, (_, _, solo) in zip(out, stack):
        np.testing.assert_array_equal(row, solo)


def test_every_context_has_the_one_unpooled_layout():
    backend = LongSightAttention(FLOOR)
    assert {backend._row_layout(n) for n in CONTEXTS} == {(D, False)}
