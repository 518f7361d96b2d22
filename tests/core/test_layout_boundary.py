"""The row layouts split at ``D + P = n_sink + window + top_k``.

A row at ``n <= D + P`` attends a masked panel of its first ``n`` keys:
sinks and window always, a span key iff it passes stage 1 — with at most
``top_k`` candidates, top-k keeps every key that passes.  Past ``D + P``
the row is sinks + window ++ a pool from stages 1-4.  Decode rows and
prefill rows take the same two layouts.

At contexts ``D, D + 1, D + P - 1, D + P, D + P + 1`` and thresholds 0
(every key passes), 20 and ``head_dim + 1`` (none passes), every
selection equals :class:`~repro.core.reference.ReferenceAttention`'s, and
``FilterStats``, the ``attention.*`` counters and the offload backend's
``survivor_capture`` keep the values the two-layout kernel (panel ++ pool
past ``D``) produced — pinned below as literals, so that the offload
backend prices the same offloads.
"""

import numpy as np
import pytest

from repro.core.config import LongSightConfig
from repro.core.hybrid import LongSightAttention, _SparseSpan
from repro.core.metrics import FilterStats
from repro.core.reference import ReferenceAttention
from repro.llm.config import ModelConfig
from repro.llm.kv_cache import KVCache
from repro.obs import MetricsRegistry, Obs, Tracer

MC = ModelConfig(name="edge", vocab_size=8, n_layers=1, n_q_heads=4,
                 n_kv_heads=2, head_dim=32, d_ff=8)
N_SINK, WINDOW, TOP_K = 4, 16, 8
D, P = N_SINK + WINDOW, TOP_K
CONTEXTS = (D, D + 1, D + P - 1, D + P, D + P + 1)
THRESHOLDS = (0, 20, MC.head_dim + 1)
#: Query rows per case: one decode row, a 4-row prefill tail and the
#: whole context as one block.
ROWS = ("decode", "tail", "block")


def _case(threshold: int, n_ctx: int, rows: str):
    """A cache of ``n_ctx`` keys (offset, as the ledger's ``qk_bias``
    makes them) and the queries of ``rows``."""
    rng = np.random.default_rng(1000 * threshold + n_ctx)
    k, v = rng.normal(size=(2, MC.n_kv_heads, n_ctx, MC.head_dim))
    n_new = {"decode": 1, "tail": 4, "block": n_ctx}[rows]
    q = rng.normal(size=(MC.n_q_heads, n_new, MC.head_dim))
    config = LongSightConfig(window=WINDOW, n_sink=N_SINK, top_k=TOP_K,
                             thresholds=threshold)
    cache = KVCache(MC)
    LongSightAttention(config).prepare_cache(cache)
    cache.append(0, k + 0.4, v)
    return config, q, cache


def _measured(cls, config, q, cache):
    """Output, selections, FilterStats, metrics and (kernel only) the
    survivors of one forward."""
    backend = cls(config, stats=FilterStats(1, MC.n_kv_heads),
                  obs=Obs(MetricsRegistry(enabled=True),
                          Tracer(enabled=False)))
    backend.selection_capture = {}
    if cls is LongSightAttention:
        backend.survivor_capture = []
    out = backend.forward_cached(0, q, cache)
    return (out, backend.selection_capture, backend.stats,
            backend.obs.metrics.snapshot(),
            getattr(backend, "survivor_capture", None))


def _summary(stats, counters, survivors) -> tuple:
    """Counts only: stats per KV head, the ``attention.*`` counters, and
    per survivor unit its first head, its passes and its union's size."""
    return (tuple(int(x) for name in ("candidates", "passed", "retrieved",
                                      "queries")
                  for x in getattr(stats, name)[0]),
            tuple(int(counters.get(f"attention.{name}", 0)) for name in (
                "queries", "dense.accesses",
                "sparse.candidates", "sparse.passed", "sparse.selected")),
            tuple((h0, int(passes.sum()), int(union.sum()))
                  for h0, passes, union in survivors))


#: ``_summary`` of every case, as the two-layout kernel computed it.
PINNED = {
    (0, 20, "decode"): (
        (0, 0, 0, 0, 0, 0, 0, 0),
        (4, 80, 0, 0, 0),
        ()),
    (0, 20, "tail"): (
        (0, 0, 0, 0, 0, 0, 0, 0),
        (16, 296, 0, 0, 0),
        ()),
    (0, 20, "block"): (
        (0, 0, 0, 0, 0, 0, 0, 0),
        (80, 840, 0, 0, 0),
        ()),
    (0, 21, "decode"): (
        (2, 2, 2, 2, 2, 2, 2, 2),
        (4, 80, 4, 4, 4),
        ((0, 2, 1), (2, 2, 1))),
    (0, 21, "tail"): (
        (2, 2, 2, 2, 2, 2, 8, 8),
        (16, 308, 4, 4, 4),
        ((0, 2, 1), (2, 2, 1))),
    (0, 21, "block"): (
        (2, 2, 2, 2, 2, 2, 42, 42),
        (84, 920, 4, 4, 4),
        ((0, 2, 1), (2, 2, 1))),
    (0, 27, "decode"): (
        (14, 14, 14, 14, 14, 14, 2, 2),
        (4, 80, 28, 28, 28),
        ((0, 14, 7), (2, 14, 7))),
    (0, 27, "tail"): (
        (44, 44, 44, 44, 44, 44, 8, 8),
        (16, 320, 88, 88, 88),
        ((0, 44, 22), (2, 44, 22))),
    (0, 27, "block"): (
        (56, 56, 56, 56, 56, 56, 54, 54),
        (108, 1400, 112, 112, 112),
        ((0, 56, 28), (2, 56, 28))),
    (0, 28, "decode"): (
        (16, 16, 16, 16, 16, 16, 2, 2),
        (4, 80, 32, 32, 32),
        ((0, 16, 8), (2, 16, 8))),
    (0, 28, "tail"): (
        (52, 52, 52, 52, 52, 52, 8, 8),
        (16, 320, 104, 104, 104),
        ((0, 52, 26), (2, 52, 26))),
    (0, 28, "block"): (
        (72, 72, 72, 72, 72, 72, 56, 56),
        (112, 1480, 144, 144, 144),
        ((0, 72, 36), (2, 72, 36))),
    (0, 29, "decode"): (
        (18, 18, 18, 18, 16, 16, 2, 2),
        (4, 80, 36, 36, 32),
        ((0, 18, 9), (2, 18, 9))),
    (0, 29, "tail"): (
        (60, 60, 60, 60, 58, 58, 8, 8),
        (16, 320, 120, 120, 116),
        ((0, 60, 30), (2, 60, 30))),
    (0, 29, "block"): (
        (90, 90, 90, 90, 88, 88, 58, 58),
        (116, 1560, 180, 180, 176),
        ((0, 90, 45), (2, 90, 45))),
    (20, 20, "decode"): (
        (0, 0, 0, 0, 0, 0, 0, 0),
        (4, 80, 0, 0, 0),
        ()),
    (20, 20, "tail"): (
        (0, 0, 0, 0, 0, 0, 0, 0),
        (16, 296, 0, 0, 0),
        ()),
    (20, 20, "block"): (
        (0, 0, 0, 0, 0, 0, 0, 0),
        (80, 840, 0, 0, 0),
        ()),
    (20, 21, "decode"): (
        (2, 2, 0, 0, 0, 0, 2, 2),
        (4, 80, 4, 0, 0),
        ((0, 0, 0), (2, 0, 0))),
    (20, 21, "tail"): (
        (2, 2, 0, 0, 0, 0, 8, 8),
        (16, 308, 4, 0, 0),
        ((0, 0, 0), (2, 0, 0))),
    (20, 21, "block"): (
        (2, 2, 0, 0, 0, 0, 42, 42),
        (84, 920, 4, 0, 0),
        ((0, 0, 0), (2, 0, 0))),
    (20, 27, "decode"): (
        (14, 14, 2, 0, 2, 0, 2, 2),
        (4, 80, 28, 2, 2),
        ((0, 2, 2), (2, 0, 0))),
    (20, 27, "tail"): (
        (44, 44, 9, 4, 9, 4, 8, 8),
        (16, 320, 88, 13, 13),
        ((0, 9, 9), (2, 4, 4))),
    (20, 27, "block"): (
        (56, 56, 8, 5, 8, 5, 54, 54),
        (108, 1400, 112, 13, 13),
        ((0, 8, 8), (2, 5, 5))),
    (20, 28, "decode"): (
        (16, 16, 2, 0, 2, 0, 2, 2),
        (4, 80, 32, 2, 2),
        ((0, 2, 2), (2, 0, 0))),
    (20, 28, "tail"): (
        (52, 52, 11, 4, 11, 4, 8, 8),
        (16, 320, 104, 15, 15),
        ((0, 11, 9), (2, 4, 4))),
    (20, 28, "block"): (
        (72, 72, 3, 6, 3, 6, 56, 56),
        (112, 1480, 144, 9, 9),
        ((0, 3, 3), (2, 6, 6))),
    (20, 29, "decode"): (
        (18, 18, 1, 4, 1, 4, 2, 2),
        (4, 80, 36, 5, 5),
        ((0, 1, 1), (2, 4, 4))),
    (20, 29, "tail"): (
        (60, 60, 7, 6, 7, 6, 8, 8),
        (16, 320, 120, 13, 13),
        ((0, 7, 6), (2, 6, 6))),
    (20, 29, "block"): (
        (90, 90, 7, 7, 7, 7, 58, 58),
        (116, 1560, 180, 14, 14),
        ((0, 7, 7), (2, 7, 6))),
    (33, 20, "decode"): (
        (0, 0, 0, 0, 0, 0, 0, 0),
        (4, 80, 0, 0, 0),
        ()),
    (33, 20, "tail"): (
        (0, 0, 0, 0, 0, 0, 0, 0),
        (16, 296, 0, 0, 0),
        ()),
    (33, 20, "block"): (
        (0, 0, 0, 0, 0, 0, 0, 0),
        (80, 840, 0, 0, 0),
        ()),
    (33, 21, "decode"): (
        (2, 2, 0, 0, 0, 0, 2, 2),
        (4, 80, 4, 0, 0),
        ((0, 0, 0), (2, 0, 0))),
    (33, 21, "tail"): (
        (2, 2, 0, 0, 0, 0, 8, 8),
        (16, 308, 4, 0, 0),
        ((0, 0, 0), (2, 0, 0))),
    (33, 21, "block"): (
        (2, 2, 0, 0, 0, 0, 42, 42),
        (84, 920, 4, 0, 0),
        ((0, 0, 0), (2, 0, 0))),
    (33, 27, "decode"): (
        (14, 14, 0, 0, 0, 0, 2, 2),
        (4, 80, 28, 0, 0),
        ((0, 0, 0), (2, 0, 0))),
    (33, 27, "tail"): (
        (44, 44, 0, 0, 0, 0, 8, 8),
        (16, 320, 88, 0, 0),
        ((0, 0, 0), (2, 0, 0))),
    (33, 27, "block"): (
        (56, 56, 0, 0, 0, 0, 54, 54),
        (108, 1400, 112, 0, 0),
        ((0, 0, 0), (2, 0, 0))),
    (33, 28, "decode"): (
        (16, 16, 0, 0, 0, 0, 2, 2),
        (4, 80, 32, 0, 0),
        ((0, 0, 0), (2, 0, 0))),
    (33, 28, "tail"): (
        (52, 52, 0, 0, 0, 0, 8, 8),
        (16, 320, 104, 0, 0),
        ((0, 0, 0), (2, 0, 0))),
    (33, 28, "block"): (
        (72, 72, 0, 0, 0, 0, 56, 56),
        (112, 1480, 144, 0, 0),
        ((0, 0, 0), (2, 0, 0))),
    (33, 29, "decode"): (
        (18, 18, 0, 0, 0, 0, 2, 2),
        (4, 80, 36, 0, 0),
        ((0, 0, 0), (2, 0, 0))),
    (33, 29, "tail"): (
        (60, 60, 0, 0, 0, 0, 8, 8),
        (16, 320, 120, 0, 0),
        ((0, 0, 0), (2, 0, 0))),
    (33, 29, "block"): (
        (90, 90, 0, 0, 0, 0, 58, 58),
        (116, 1560, 180, 0, 0),
        ((0, 0, 0), (2, 0, 0))),
}


def _cases():
    return [(t, n, rows) for t in THRESHOLDS for n in CONTEXTS
            for rows in ROWS]


@pytest.mark.parametrize("threshold,n_ctx,rows", _cases())
def test_selections_and_counters_at_the_boundary(threshold, n_ctx, rows):
    config, q, cache = _case(threshold, n_ctx, rows)
    out, selections, stats, counters, survivors = _measured(
        LongSightAttention, config, q, cache)
    ref_out, ref_selections, ref_stats, ref_counters, _ = _measured(
        ReferenceAttention, config, q, cache)
    assert set(selections) == set(ref_selections)
    for key, mask in ref_selections.items():
        np.testing.assert_array_equal(selections[key], mask)
    for name in ("candidates", "passed", "retrieved", "queries"):
        np.testing.assert_array_equal(getattr(stats, name),
                                      getattr(ref_stats, name))
    assert counters == ref_counters
    np.testing.assert_allclose(out, ref_out, atol=1e-12)
    assert _summary(stats, counters, survivors) == PINNED[
        threshold, n_ctx, rows]
    if threshold == 0 and n_ctx > D:
        assert stats.passed.sum() == stats.candidates.sum() > 0
    if threshold > MC.head_dim:
        assert stats.passed.sum() == 0


def test_a_decode_call_below_the_boundary_is_one_pass(monkeypatch):
    """Rows on both sides of ``D``, all at or below ``D + P``: one masked
    panel pass, no stages 2-4, each row equal to its solo output."""
    calls = {"rows": 0, "pools": 0}
    rows, pools = (LongSightAttention._decode_rows,
                   LongSightAttention._fill_pools)
    selects = []

    def counted_rows(self, *args):
        calls["rows"] += 1
        return rows(self, *args)

    def counted_pools(self, *args):
        calls["pools"] += 1
        return pools(self, *args)

    qs, caches = [], []
    for n_ctx in (D - 3, D, D + 1, D + P - 1, D + P, 5):
        config, q, cache = _case(20, n_ctx, "decode")
        qs.append(q)
        caches.append(cache)
    backend = LongSightAttention(config)
    solo = [backend.forward_cached_batch(0, [q], [c])[0]
            for q, c in zip(qs, caches)]
    monkeypatch.setattr(LongSightAttention, "_decode_rows", counted_rows)
    monkeypatch.setattr(LongSightAttention, "_fill_pools", counted_pools)
    select = _SparseSpan.select
    monkeypatch.setattr(_SparseSpan, "select", lambda self, *args: (
        selects.append(args) or select(self, *args)))
    out = backend.forward_cached_batch(0, qs, caches)
    assert calls == {"rows": 1, "pools": 0} and selects == []
    for row, want in zip(out, solo):
        np.testing.assert_array_equal(row, want)
