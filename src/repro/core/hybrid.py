"""Hybrid dense–sparse attention backends (Sections 5.3 and 6).

:class:`LongSightAttention` is the software analogue of the paper's
``LongSightAttn`` PyTorch module: per query it attends densely to
``n_sink`` early tokens plus the ``window`` most recent tokens (what the GPU
keeps in HBM) and sparsely — via SCF filtering and top-k — to everything in
between (what lives in DReX).  A single softmax then runs over the combined
dense + sparse score set, exactly as in Figure 2b step 6.

The packed key signs are read from the KV cache's incremental sign store
(the software analogue of DReX reusing stored Key Sign Objects for every
query) or packed from the keys.  Five stages turn them into an output:

1. *filter* — packed mismatch counts (one XOR+popcount), thresholded per
   head in the counts' own unsigned dtype; a row's causal limit is applied
   only on the trailing columns where it can cut;
2. *score* — one BLAS GEMM per head, in the reference loop's shape;
3. *compact* — each row's survivors left-aligned into ``(rows, max
   survivors per row)`` score/column arrays;
4. *select* — the compacted tile joins the per-row pool carried from
   earlier tiles; top-k runs only if the merged width exceeds ``top_k``;
5. *attend* — one softmax over ``sinks + window ++ pool`` with gathered
   values (:func:`_attend`, for decode rows and prefill rows alike).

Stages 1–4 exist once (:class:`_SparseSpan`) and run, key tile by key
tile, over a stack of **units**.  A unit is one session's KV head — a
*slab* of its GQA group when the slab rule splits it: its query rows, its
context length, and *readers* of its keys and packed signs.  A prefill
block hands the stages one slab at a time (a stack of one); a decode call
hands them every KV head of every long-context session at once.  One rule
decides what runs on the whole stack and what per unit:

    *integer, boolean and index work stacks at any width; float work
    keeps a shape fixed by the row's own session.*

=====================================  ==========  =========================
work                                   runs        why it cannot tie a row
                                                   to its neighbours
=====================================  ==========  =========================
stage the tile's packed signs          per unit    a copy
XOR+popcount, pass bound, causal /     the stack,  integer counts and
pad cut                                padded to   comparisons are exact at
                                       the widest  any padding
                                       unit
gather rule (``2 * kept < tile``)      per unit    the unit's own survivors
score ``matmul(q_group, keys.T)``      per unit    BLAS call shape = the
                                                   unit's own survivor
                                                   union or tile
left-align, ``pool ++ tile``,          the stack   index arithmetic;
``top_k_mask``, re-compaction                      ``top_k_mask`` is
                                                   row-wise exact
``stats`` / ``selection_capture``      per unit    after the loop
=====================================  ==========  =========================

Concatenating the units' survivors into one GEMM would not do: a row's
BLAS call shape would then depend on its neighbours.  Padding would not
do for the pool either, were it not *canonical*: ``pool ++ tile`` without
re-compaction leaves a row's entries at offsets fixed by the widest row of
the stack, and softmax sums a row by offset (``np.sum`` is a pairwise
tree), so a merge onto a non-empty pool always re-left-aligns — survivors
in ascending column order, then ``-inf`` — and a row's pool is the same
array whatever it was stacked with
(``tests/core/test_decode_rows.py::test_pool_row_does_not_keep_the_holes_of_its_stack``).
Units end at different tiles (ragged contexts); one that has run out of
span leaves the loop with its pool untouched.

Float work is done for survivors only, as DReX's PIM Filter Units never
score a filtered-out key, and stages 3–5 cost O(survivors), not
O(candidates).  Compaction is row-major, so columns stay ascending within
a row and across tiles, and :func:`~repro.core.topk.top_k_mask`'s
lower-index tie-break picks exactly the keys full-width selection picks.
Two rules size the work from the inputs; neither changes a selection:

- **slab** — stages 2–5 run on the stacked rows of as many heads of the
  group as keep ``rows x max(tile width, D, top_k x head_dim)`` (the
  score, panel and gathered-value temporaries) under ``_SLAB_ELEMS``: a
  256-query block goes one head at a time;
- **gather** — when the columns any row of the unit kept are under half
  its tile, stage 2 scores only those (``keys.take(cols)``), which keeps
  decode O(passed) at selective thresholds; otherwise it slices the whole
  tile, which is cheaper once most columns survive for some row (prefill).

``LongSightConfig.prefill_tile`` bounds the working set and nothing else:
0 is one tile over the whole span, and every tile size selects the same
keys (``tests/core/test_tiled_prefill.py``).

**Readers.**  The stages touch K/V in three ways only: a position *range*
of packed signs (stage 1), ``keys.take(survivor columns)`` or a range of
keys (stage 2), ``values.take(selected columns)`` (stage 5).  A reader is
anything that answers ``[slice]`` and ``take(indices, axis=0)`` by logical
position.  An ndarray is one, so a prefill block passes ``keys[kv_head]``;
a cache hands them out per KV head (``key_rows`` / ``value_rows`` /
``sign_rows`` of the one layer store, ``repro.llm.kv_cache``): the stored
rows themselves for a contiguous session, else reads of the arena through
the session's row map — the pooled decode path never materialises a
context it will not read.  The whole context is read only by prefill
blocks, and for a cache whose sign store was not packed under this
backend's rotations (stateless ``forward``, a foreign bank), whose signs
are packed from its keys.

**A row** is one query of one session, laid out from the config and
**that row's own context length** ``n`` only (``D = n_sink + window``,
``P = top_k``); stage 5 (:func:`_attend`) runs over stacked rows.  Two
layouts:

- *the context is the row* (``n <= D``; at decode ``n <= D + P``): the
  whole context in natural column order, ``mask = dense columns |
  (candidate & filter pass)`` (:meth:`LongSightAttention._filter_rows`).
  No compaction and no top-k: with ``candidates <= top_k`` every passing
  key is selected — exactly what the reference's ``top_k_mask`` returns;
- *panel ++ pool*: the ``D`` sinks + window columns, then the row's pool
  from stages 1–4, its scores padded with -inf to ``P``.  ``top_k = 0``
  has no pool at any context length: the row *is* the panel, an
  O(window) read — the dense fallback and the paper's sliding-window
  baseline (Section 8.2 / Figure 10, :class:`SlidingWindowAttention`).

**A decode call** is :meth:`LongSightAttention.forward_cached_batch`: one
query for every compatible session of a decode batch, as the paper's GPU
runs the dense attention for the whole user batch (Figure 2b).  A served
session must produce the bits it produces alone, so a row is
*batch-invariant by construction*: sessions of one layout stack on a
leading axis, each product is one BLAS call of fixed shape per session
and KV head, the panel is the session's ``cache.window_view`` zero-padded
to ``D`` (``D + P`` for the short layout), the pool's values are ``P``
wide, and one pass of stages 1–4 fills every pooled session's pool
(:meth:`LongSightAttention._fill_pools`).  Padding rows to the batch's
widest member would change call shapes and reduction trees (``np.sum`` is
a pairwise tree of the row's width) and silently break served == solo
(``tests/core/test_decode_rows.py``).  The two unpooled widths are a
measured choice (CHANGES.md: one ``D + P`` width costs
``chat_burst`` ~15% more attention time), not an option.  Which sessions
may share a call is :meth:`LongSightAttention.stack_key`.

**A prefill block** (two or more queries) is
:meth:`LongSightAttention._forward_block`: row *i* is the row at
``n_i = n_ctx - n_new + i + 1``.  Rows with ``n_i <= D`` share the panel
``[0, min(D, n_ctx))``; a longer row's window is a banded view of the
layer's keys and values, not a copy, and its pool is the one stages 1–4
produced for it.  Each row equals the decode row at its context to
round-off (``tests/core/test_prefill_is_decode_rows.py``).

The correctness oracle — the original per-head loop over full-width
masks — is :class:`repro.core.reference.ReferenceAttention`; selected key
sets match it exactly and outputs to float round-off in both entry
points and every layout (``tests/core/test_fast_equivalence.py``,
``tests/core/test_block_prefill.py``, ``tests/core/test_decode_rows.py``).
"""

from __future__ import annotations

import math
from typing import Dict, Optional, Tuple

import numpy as np
from numpy.lib.stride_tricks import as_strided

from repro.core.config import LongSightConfig
from repro.core.itq import ItqRotations
from repro.core.metrics import FilterStats
from repro.obs import Obs, resolve_obs
from repro.core.scf import mismatches_packed, pack_signs
from repro.core.topk import top_k_mask
from repro.llm.kv_cache import KVCache, SessionLayerKV
from repro.llm.ops import softmax

#: Element bound on one slab's score / panel / gathered-value temporaries
#: (8 MiB of float64); see the slab rule in the module docstring.
_SLAB_ELEMS = 1 << 20


#: Filter-ratio histogram edges: log-spaced 1x..1000x savings.
_RATIO_EDGES = tuple(float(e) for e in np.geomspace(1.0, 1000.0, 31))


def _record_split(metrics, queries: int, dense_accesses: int,
                  candidates: int, passed: int, selected: int) -> None:
    """Record one forward's dense-window vs. sparse-topk access split.

    ``filter_ratio`` follows the paper's definition over the sparse
    region (see :mod:`repro.core.metrics`): dense baseline accesses
    ``2N`` vs. ``N_pass + 2 k_ret`` after filtering — one histogram
    sample per instrumented forward ("per step" at decode time).
    """
    metrics.counter("attention.forwards").inc()
    metrics.counter("attention.queries").inc(queries)
    metrics.counter("attention.dense.accesses").inc(dense_accesses)
    metrics.counter("attention.sparse.candidates").inc(candidates)
    metrics.counter("attention.sparse.passed").inc(passed)
    metrics.counter("attention.sparse.selected").inc(selected)
    if candidates:
        ratio = 2.0 * candidates / max(passed + 2.0 * selected, 1e-12)
        metrics.histogram("attention.filter_ratio",
                          edges=_RATIO_EDGES).observe(ratio)


def _product(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``a (..., m, k) @ b``.  A 2-D ``b`` is shared by every row of ``a``:
    one GEMM over all of them, not one per leading index."""
    if b.ndim > 2:
        return np.matmul(a, b)
    lead = a.shape[:-1]
    return (a.reshape(math.prod(lead), a.shape[-1]) @ b).reshape(
        lead + b.shape[-1:])


def _attend(q: np.ndarray, panels, keep: Optional[np.ndarray] = None,
            pool: Optional[tuple] = None) -> np.ndarray:
    """Stage 5 for stacked rows: one softmax over ``panel ++ pool``, P.V.

    ``q`` is ``(..., m, d)``: ``m`` queries that read one panel — a decode
    row's GQA group, a long prefill row's heads, the short prefill rows of
    one head.  ``panels`` are ``(keys, values)`` pieces laid side by side:
    ``(..., w, d)`` per row (a decode row's panel, a prefill row's banded
    window — a view, not a copy), or ``(w, d)`` shared by every row (the
    sinks; the short prefill rows' panel).  ``keep`` masks panel columns
    (broadcast to ``(..., m, panel width)``; None keeps every column).
    ``pool`` is ``(scores, values)``: ``(..., m, P)`` scaled scores at the
    row's pool width (-inf in an empty slot) and ``(..., m, <= P, d)``
    values of its leading slots; a slot past them has weight exactly 0.
    """
    width = sum(k.shape[-2] for k, _ in panels)
    n_pool = 0 if pool is None else pool[0].shape[-1]
    rows = np.empty(q.shape[:-1] + (width + n_pool,), dtype=q.dtype)
    at = 0
    for keys, _ in panels:
        rows[..., at:at + keys.shape[-2]] = _product(q, keys.swapaxes(-1, -2))
        at += keys.shape[-2]
    scores = rows[..., :width]
    scores *= 1.0 / np.sqrt(q.shape[-1])
    if keep is not None:
        np.copyto(scores, -np.inf, where=~keep)
    if pool is not None:
        rows[..., width:] = pool[0]
    probs = softmax(rows, axis=-1)
    out, at = np.zeros(q.shape, dtype=q.dtype), 0
    for _, values in panels:
        out += _product(probs[..., at:at + values.shape[-2]], values)
        at += values.shape[-2]
    if pool is not None:
        pool_v = pool[1]
        out += np.matmul(probs[..., None, width:width + pool_v.shape[-2]],
                         pool_v)[..., 0, :]
    return out


def _left_align(mask: np.ndarray
                ) -> tuple[np.ndarray, np.ndarray, tuple, np.ndarray]:
    """Flat indices that left-align each row's True entries of ``mask``.

    Returns ``(src, dest, shape, counts)``: ``src`` are the flat positions
    of the True entries in row-major order (so columns stay ascending
    within a row), ``dest`` their flat positions in a ``shape = (n_rows,
    max True per row)`` array with each row's entries packed to the left,
    ``counts`` the number of True entries per row.
    """
    n_rows, n_cols = mask.shape
    src = mask.ravel().nonzero()[0]
    # src is sorted, so row r's entries end where r's flat range ends.
    ends = src.searchsorted(np.arange(1, n_rows + 1) * n_cols)
    counts = ends.copy()
    counts[1:] -= ends[:-1]
    width = int(counts.max()) if n_rows else 0
    dest = np.arange(len(src)) + np.repeat(
        np.arange(n_rows) * width - (ends - counts), counts)
    return src, dest, (n_rows, width), counts


def _padded(values: np.ndarray, dest: np.ndarray, shape: tuple,
            fill) -> np.ndarray:
    """``values`` scattered to flat positions ``dest`` of a ``fill`` array."""
    out = np.full(shape, fill, dtype=values.dtype)
    out.ravel()[dest] = values
    return out


def _stats_per_q(stats: Optional[FilterStats], n_q_heads: int,
                 n_kv_heads: int) -> bool:
    # Stats may be tracked at KV-head or query-head resolution; the
    # stats object's head-axis width decides (the finer resolution is
    # used by the threshold-granularity ablation).
    return (stats is not None and stats.n_kv_heads == n_q_heads
            and n_q_heads != n_kv_heads)


class _ArrayCache:
    """Stateless :meth:`LongSightAttention.forward`'s K/V arrays as a
    one-layer session: the layer store over the caller's arrays, read as
    any cache is (one run from row 0, no sign store)."""

    sign_cache_enabled = False
    sign_rotations = None
    contiguous = True
    window_view = KVCache.window_view        # reads ``layers[layer]`` only

    def __init__(self, layer: int, k: np.ndarray, v: np.ndarray) -> None:
        kv = SessionLayerKV(self, (k, v, None))
        kv._len = k.shape[1]
        self.row_map = np.arange(kv._len)
        self.layers = {layer: kv}


#: Column of an empty pool slot: sorts after every real column of every
#: session, so one sentinel serves a stack of ragged contexts.
_PAD = np.iinfo(np.int64).max


class _SparseSpan:
    """Stages 1-4 over the sparse spans of a stack of *units*.

    A unit is one session's KV head — in a prefill block, one slab of its
    GQA group: its query rows (head-major), its context length and the
    readers of its keys and packed signs (anything that answers
    ``[slice]`` and ``take(indices, axis=0)`` by logical position: an
    ndarray, or a paged cache's row-mapped reader).  Built once per kernel
    call — the per-head pass bounds — after which :meth:`select` runs
    filter -> score -> compact -> select for every unit handed to it at
    once.  The prefill kernel passes a stack of one, the decode routine's
    pooled layout every long-context session of the call: the stages
    exist once.

    What stacks and what does not is the module docstring's rule: integer,
    boolean and index work runs once over all units' rows, padded to the
    widest unit of the tile; float work (the stage-2 score) keeps a shape
    fixed by the unit alone.
    """

    def __init__(self, backend: "LongSightAttention", layer: int,
                 n_q_heads: int, n_kv_heads: int, n_new: int,
                 head_dim: int) -> None:
        self.backend, self.layer = backend, layer
        self.n_new, self.head_dim = n_new, head_dim
        self.group = n_q_heads // n_kv_heads
        self.bounds = backend._pass_bounds(layer, n_q_heads, self.group,
                                           head_dim)
        self.per_q = _stats_per_q(backend.stats, n_q_heads, n_kv_heads)
        # Row i of a block ending at n_ctx may select columns in
        # [n_sink, n_ctx + row_end[i]): its causal limit, window excluded.
        self.row_end = np.arange(-n_new, 0) - backend.config.window + 1
        self._cuts: Dict[tuple, np.ndarray] = {}

    def candidates(self, n_ctx: int) -> int:
        """Sparse candidates of one head's query block ending at ``n_ctx``
        (the count the reference gets from ``sparse_mask.sum()``)."""
        return int(np.maximum(
            n_ctx + self.row_end - self.backend.config.n_sink, 0).sum())

    def _before_row_end(self, n_ctx: np.ndarray, lo: int,
                        hi: int) -> np.ndarray:
        """``(units, 1, n_new, hi - lo)``: is column ``lo + j`` before the
        end of the row's selectable columns — its causal limit, which is
        also where a narrower unit's pad begins?  Kept per span: the slabs
        of one prefill block all ask for the same 256 x 255 comparison."""
        key = (lo, hi, n_ctx.tobytes())
        if key not in self._cuts:
            self._cuts[key] = np.arange(lo, hi) < (
                n_ctx[:, None] + self.row_end)[:, None, :, None]
        return self._cuts[key]

    def tile(self, n_ctx):
        """Key-tile width of the span ``[n_sink, n_ctx - window)``, for one
        context length or an array of them."""
        cfg = self.backend.config
        return np.maximum(0, np.minimum(cfg.prefill_tile or n_ctx,
                                        n_ctx - cfg.window - cfg.n_sink))

    def slab_heads(self, n_ctx: int) -> int:
        """Heads of a group that stages 2-5 take at once (the slab rule)."""
        cfg = self.backend.config
        return max(1, _SLAB_ELEMS // (self.n_new * max(
            int(self.tile(n_ctx)), cfg.n_sink + cfg.window,
            cfg.top_k * self.head_dim)))

    def select(self, q: np.ndarray, q_signs: np.ndarray, h0, n_ctx, keys,
               signs) -> tuple[np.ndarray, np.ndarray, np.ndarray,
                               np.ndarray]:
        """Stages 1-4 for ``n_units`` units of ``n_heads`` heads each.

        ``q`` is ``(n_units, n_heads, n_new, head_dim)``, ``q_signs`` its
        packed signs; per unit, ``h0`` is the first query head, ``n_ctx``
        the context length, ``keys`` / ``signs`` the readers of its KV
        head's ``(n_ctx, head_dim)`` keys and ``(n_ctx, n_bytes)`` packed
        signs.  Returns ``(pool_s, pool_c, passed, selected)``: per stacked
        row (unit-major, then head-major) the best (score, column) pairs,
        at most ``top_k`` wide and *canonical* — left-aligned in ascending
        column order, then score -inf / column ``_PAD`` — so a row's
        entries sit at the same offsets whatever it was stacked with; and
        the pass / selection counts per unit, which are also recorded into
        the backend's ``stats`` and ``selection_capture``.
        """
        backend = self.backend
        cfg = backend.config
        top_k, lo = cfg.top_k, cfg.n_sink
        n_units, n_heads, n_new, head_dim = q.shape
        unit_rows = n_heads * n_new          # a unit's rows, head-major
        scale = 1.0 / np.sqrt(head_dim)
        neg_inf = -np.inf
        h0, n_ctx = np.asarray(h0), np.asarray(n_ctx)
        hi = n_ctx - cfg.window
        tile = self.tile(n_ctx)
        q_signs = q_signs.reshape(n_units, unit_rows, -1)
        bounds = self.bounds[h0[:, None] + np.arange(n_heads)]
        pool_s = np.empty((n_units * unit_rows, 0))
        pool_c = np.empty(pool_s.shape, dtype=np.int64)
        passed = np.zeros(len(pool_s), dtype=np.int64)
        # A unit's tiles start at lo + j * tile; a unit whose tile is
        # narrower than the widest has a single tile (its whole span), so
        # one stride walks every unit's tiles and a unit that has run out
        # of span simply leaves the loop, its pool untouched.
        for t0 in range(lo, int(hi.max()), int(tile.max())):
            widths = np.minimum(t0 + tile, hi) - t0
            live = np.flatnonzero(widths > 0)
            n_live = len(live)
            widths = widths[live]
            width = int(widths.max())
            if n_live == n_units:
                units = rows = slice(None)
            else:
                units = live
                rows = (live[:, None] * unit_rows
                        + np.arange(unit_rows)).ravel()
            # -- 1. filter: one XOR+popcount over every live unit's tile.
            if n_live == 1:
                # Nothing to pad or stack: the sign range as it is read.
                key_signs = signs[live[0]][t0:t0 + width][None]
            else:
                key_signs = np.empty((n_live, width, q_signs.shape[-1]),
                                     dtype=np.uint8)
                for i, u in enumerate(live):
                    key_signs[i, :widths[i]] = signs[u][t0:t0 + widths[i]]
            with backend.obs.tracer.span("scf_filter", layer=self.layer):
                mism = mismatches_packed(q_signs[units], key_signs)
            pass_t = (mism.reshape(n_live, n_heads, n_new, width)
                      < bounds[units, :, None, None].astype(mism.dtype))
            # Columns at or beyond a row's end — the causal tail of a
            # prefill block, the pad of a narrower unit — are cut; only
            # the trailing columns some row ends before can need it.
            cut = max(int(hi[units].min()) - n_new + 1, t0)
            if cut < t0 + width:
                pass_t[..., cut - t0:] &= self._before_row_end(
                    n_ctx[units], cut, t0 + width)
            # The gather rule, per unit, on that unit's own survivors.
            kept = pass_t.reshape(n_live, unit_rows, width).any(axis=1)
            cols = [k.nonzero()[0] for k in kept]
            pass_t = pass_t.reshape(n_live * unit_rows, width)
            gather = [2 * len(c) < w for c, w in zip(cols, widths)]
            frame_cols = None
            if n_live == 1 and gather[0]:
                # A lone unit's own columns are the frame: the index work
                # below runs on O(passed) columns, not on the tile.
                frame_cols = cols[0]
                pass_t = pass_t[:, frame_cols]
            src, dest, shape, counts = _left_align(pass_t)
            passed[rows] += counts
            if not len(src):
                continue                  # tile contributes nothing
            # -- 2. score: one GEMM per unit and head, on the unit's own
            # survivor union (gathered) or tile — its shape is a function
            # of the unit alone, never of what it is stacked with.
            frame = None if n_live == 1 else np.empty(
                (n_live * unit_rows, width), dtype=q.dtype)
            for i, u in enumerate(live):
                keys_t = keys[u].take(cols[i] + t0, axis=0) if gather[i] \
                    else keys[u][t0:t0 + widths[i]]
                # Upcast before transposing: left to matmul, the cast of
                # the transposed view is a strided copy.
                keys_t = keys_t.astype(q.dtype, copy=False)
                scores = np.matmul(q[u], keys_t.T).reshape(unit_rows, -1)
                if frame is None:
                    frame = scores
                else:
                    frame[i * unit_rows:(i + 1) * unit_rows,
                          cols[i] if gather[i] else slice(widths[i])] = scores
            # Scale survivors only: the same float op per entry as the
            # reference's full-width scaling.  The frame is the tile's
            # largest temporary (8 MB for a 256 x 4096 block): it must not
            # live through the merge, let alone into the next tile's GEMM.
            scores = frame.ravel()[src] * scale
            del frame
            col = src % pass_t.shape[1]
            if frame_cols is not None:
                col = frame_cols[col]
            # -- 3. compact, 4. select.
            merged_s = _padded(scores, dest, shape, neg_inf)
            merged_c = _padded(col + t0, dest, shape, _PAD)
            pool_w = pool_s.shape[1]
            if pool_w:
                merged_s = np.concatenate([pool_s[rows], merged_s], axis=1)
                merged_c = np.concatenate([pool_c[rows], merged_c], axis=1)
            keep = None
            if merged_s.shape[1] > top_k:
                keep = top_k_mask(merged_s, top_k)
            elif pool_w:
                # Re-left-align even when nothing is dropped: pool ++ tile
                # leaves holes at offsets fixed by the widest row of the
                # *stack*, and softmax sums a row by offset.
                keep = merged_c != _PAD
            if keep is not None:
                src, dest, shape, _ = _left_align(keep)
                merged_s = _padded(merged_s.ravel()[src], dest, shape,
                                   neg_inf)
                merged_c = _padded(merged_c.ravel()[src], dest, shape, _PAD)
            if n_live == n_units:
                pool_s, pool_c = merged_s, merged_c
                continue
            # Some units have left the loop: only the live rows merged.
            # From here on the pool is top_k wide, so that they fit.
            if pool_w < top_k:
                pad = (len(pool_s), top_k - pool_w)
                pool_s = np.concatenate([pool_s, np.full(pad, neg_inf)],
                                        axis=1)
                pool_c = np.concatenate([pool_c, np.full(pad, _PAD)], axis=1)
            merged_w = merged_s.shape[1]
            pool_s[rows, :merged_w] = merged_s
            pool_s[rows, merged_w:] = neg_inf
            pool_c[rows, :merged_w] = merged_c
            pool_c[rows, merged_w:] = _PAD
        pool_w = pool_s.shape[1]
        valid = (pool_c != _PAD).reshape(n_units, n_heads, n_new, pool_w)
        retrieved = valid.sum(axis=(2, 3))
        passed = passed.reshape(n_units, n_heads, n_new).sum(axis=2)
        if backend.stats is not None or backend.selection_capture is not None:
            for u, unit_ctx in enumerate(n_ctx.tolist()):
                candidates = self.candidates(unit_ctx)
                for i, h in enumerate(range(int(h0[u]), int(h0[u]) + n_heads)):
                    if backend.stats is not None:
                        backend.stats.update(
                            self.layer, h if self.per_q else h // self.group,
                            candidates=candidates, passed=int(passed[u, i]),
                            retrieved=int(retrieved[u, i]), queries=n_new)
                    if backend.selection_capture is not None:
                        sel_mask = np.zeros((n_new, unit_ctx), dtype=bool)
                        r, slots = np.nonzero(valid[u, i])
                        sel_mask[r, pool_c[(u * n_heads + i) * n_new + r,
                                           slots]] = True
                        backend.selection_capture[(self.layer, h)] = sel_mask
        return pool_s, pool_c, passed.sum(axis=1), retrieved.sum(axis=1)


class LongSightAttention:
    """Hybrid dense+sparse attention backend for :class:`Transformer`.

    Args:
        config: algorithm hyper-parameters (window, sinks, k, thresholds).
        rotations: optional ITQ rotation bank; required when
            ``config.use_itq`` is set.
        stats: optional :class:`FilterStats` to accumulate access counters
            into (callers typically reset it between measurements).
        obs: observability bundle; ``None`` binds the process-global
            default (metrics on, tracing off).  Metrics never change the
            computation — outputs are bit-identical either way.

    The backend is stateless across calls apart from ``stats`` and the
    optional ``selection_capture`` debug dict: when set to a dictionary,
    every forward stores the selected sparse-key mask per
    ``(layer, q_head)`` — the equivalence suite uses this to compare the
    kernel's selections with the reference loop's bit-for-bit.
    """

    def __init__(self, config: LongSightConfig,
                 rotations: Optional[ItqRotations] = None,
                 stats: Optional[FilterStats] = None,
                 obs: Optional[Obs] = None) -> None:
        # (top_k = 0 extracts no sign, so it needs no bank.)
        if config.use_itq and config.top_k and rotations is None:
            raise ValueError("use_itq requires an ItqRotations bank")
        self.config = config
        self.rotations = rotations
        self.stats = stats
        self.obs = resolve_obs(obs)
        self.selection_capture: Optional[Dict[Tuple[int, int], np.ndarray]] = None
        #: id(config) -> variant; a variant holds its config, so the id
        #: cannot be reused while the entry lives.
        self._variants: Dict[int, "LongSightAttention"] = {}
        self._dense_fallback: Optional["LongSightAttention"] = None

    def with_config(self, config: LongSightConfig) -> "LongSightAttention":
        """A variant backend with swapped retrieval knobs, shared state.

        The serving quality ladder serves some tokens at reduced
        ``top_k`` / raised ``thresholds``, down to ``top_k = 0``; all are
        query-time knobs (the stored packed-sign layout is identical
        across variants), so the variant can read the same KV cache.
        Rotations and the obs bundle are shared; stats/selection capture
        are not (variants are transient quality levels, not measurement
        subjects).  One variant per config object: asked again — once a
        token — the same backend comes back.
        """
        variant = self._variants.get(id(config))
        if variant is None:
            variant = self._variants[id(config)] = LongSightAttention(
                config, rotations=self.rotations, obs=self.obs)
        return variant

    # -- hooks Transformer discovers by name ----------------------------------

    def prepare_cache(self, cache: "KVCache") -> None:
        """Enable the cache's incremental sign store for this backend.

        Called by :class:`Transformer` before prefill/decode (duck-typed
        hook).  Idempotent.  At ``top_k = 0`` no sign is ever read, so a
        cache is left as it is.
        """
        if self.config.top_k:
            cache.enable_sign_cache(
                self.rotations if self.config.use_itq else None)

    def stack_key(self):
        """Sessions whose backends return equal keys may share one
        :meth:`forward_cached_batch` call (duck-typed hook).

        The serving engine builds one backend *instance* per request, so
        identity would never stack anything; what has to agree is what the
        routine reads — the class and the ``config`` / ``rotations`` /
        ``obs`` objects.  A backend that accumulates ``stats`` or a
        ``selection_capture`` stacks only with itself, so its counters
        fill exactly as they do per session.
        """
        if self.stats is not None or self.selection_capture is not None:
            return id(self)
        return (type(self), id(self.config), id(self.rotations),
                id(self.obs))

    # -- entry points -----------------------------------------------------------

    def _pack_key_signs(self, layer: int, k: np.ndarray) -> np.ndarray:
        """``(n_kv_heads, n_ctx, n_bytes)`` packed (rotated) signs of ``k``."""
        if self.config.use_itq:
            k = np.matmul(k, self.rotations.matrices[layer])
        return pack_signs(k)

    def _reads_sign_store(self, cache: "KVCache") -> bool:
        """Was ``cache``'s sign store packed under this backend's rotations?"""
        expected = self.rotations if self.config.use_itq else None
        return cache.sign_cache_enabled and cache.sign_rotations is expected

    def _key_signs(self, layer: int, cache: "KVCache",
                   keys: np.ndarray) -> np.ndarray:
        """The cache's sign store when it was packed under this backend's
        rotations, else the signs of ``keys`` (the layer's full history)."""
        if self._reads_sign_store(cache):
            return cache.layers[layer].packed_signs
        return self._pack_key_signs(layer, keys)

    def _query_signs(self, layer: int, q: np.ndarray) -> np.ndarray:
        """Packed (rotated) signs of ``q (..., n_kv_heads, group, n, d)``."""
        if self.config.use_itq:
            q = np.matmul(q, self.rotations.matrices[layer][:, None])
        return pack_signs(q)

    def _pass_bounds(self, layer: int, n_q_heads: int, group: int,
                     head_dim: int) -> np.ndarray:
        """Per query head, the mismatch count a passing key stays under.

        conc >= threshold  <=>  mismatches < floor(d - threshold) + 1,
        clipped so that it compares in the counts' unsigned dtype: 0
        passes nothing (threshold > d), d + 1 everything.
        """
        return np.array([np.floor(head_dim - self.config.threshold_for(
            layer, h // group, h)) + 1 for h in range(n_q_heads)]
        ).clip(0, head_dim + 1)

    def forward_cached(self, layer: int, q: np.ndarray,
                       cache: "KVCache") -> np.ndarray:
        """Cache-aware forward: consumes the sign store when compatible.

        One query is a decode row (:meth:`forward_cached_batch` at one
        session); two or more are a prefill block (:meth:`_forward_block`).
        """
        if q.shape[1] == 1:
            return self.forward_cached_batch(layer, [q], [cache])[0]
        kv = cache.layers[layer]
        keys = kv.keys
        return self._forward_block(
            layer, q, keys, kv.values,
            self._key_signs(layer, cache, keys) if self.config.top_k
            else None)

    def forward(self, layer: int, q: np.ndarray, k: np.ndarray,
                v: np.ndarray) -> np.ndarray:
        if q.shape[1] == 1:
            return self.forward_cached_batch(
                layer, [q], [_ArrayCache(layer, k, v)])[0]
        return self._forward_block(
            layer, q, k, v,
            self._pack_key_signs(layer, k) if self.config.top_k else None)

    # -- degradation target ---------------------------------------------------

    def dense_fallback(self) -> "LongSightAttention":
        """The correctness anchor when the sparse path is unavailable.

        This backend at ``top_k = 0``: sinks + sliding window with this
        config's geometry — exactly what the hybrid algorithm computes
        when the offload contributes nothing.  The offload supervisor
        degrades to this per token when a DReX device fails past its
        retry budget; it is also the exact software semantics of a
        supervised backend at 100% offload failure.
        """
        if self._dense_fallback is None:
            self._dense_fallback = self.with_config(
                self.config.replace(top_k=0))
        return self._dense_fallback

    # -- the prefill kernel ---------------------------------------------------

    def _forward_block(self, layer: int, q: np.ndarray, k: np.ndarray,
                       v: np.ndarray,
                       key_signs: Optional[np.ndarray]) -> np.ndarray:
        """Filter -> score -> compact -> select -> attend, a query block.

        The five stages, the slab and gather rules and the exact-selection
        argument are laid out in the module docstring.  ``key_signs`` is
        the ``(n_kv_heads, n_ctx, n_bytes)`` packed sign store (already
        rotated when ITQ is on); at ``top_k = 0`` it is not read — nothing
        can be selected, so stages 1-4 are skipped and no candidate is
        counted as offloaded.
        """
        cfg = self.config
        n_q_heads, n_new, head_dim = q.shape
        n_kv_heads, n_ctx, _ = k.shape
        group = n_q_heads // n_kv_heads
        n_dense = cfg.n_sink + cfg.window
        # Row i is the row at context n_i (module docstring): n_short
        # rows read [0, short_w), the rest sinks ++ band ++ pool.
        n_i = np.arange(n_ctx - n_new, n_ctx) + 1
        n_short = int(np.clip(n_dense - (n_ctx - n_new), 0, n_new))
        short_w = min(n_dense, n_ctx)
        band_lo = n_ctx - n_new + n_short - cfg.window + 1
        causal = np.arange(short_w) < n_i[:n_short, None]
        span = _SparseSpan(self, layer, n_q_heads, n_kv_heads, n_new,
                           head_dim)
        slab = span.slab_heads(n_ctx)
        candidates = span.candidates(n_ctx) if cfg.top_k else 0
        if candidates:
            q_signs = self._query_signs(
                layer, q.reshape(n_kv_heads, group, n_new, head_dim)
            ).reshape(n_q_heads, n_new, -1)

        passed_total = selected_total = 0
        out = np.empty_like(q)
        for kv_head in range(n_kv_heads):
            # Upcast once: every read below (and stage 2's) is then a view
            # or a gather of float64 rows.
            keys, values = (x[kv_head].astype(q.dtype, copy=False)
                            for x in (k, v))
            g_lo, g_hi = kv_head * group, (kv_head + 1) * group
            short = [(keys[:short_w], values[:short_w])]
            sinks = (keys[:cfg.n_sink], values[:cfg.n_sink])
            # Row i's window, rows [band_lo + i, band_lo + i + window): a
            # banded view of the layer's rows, not a copy.
            band = tuple(as_strided(
                x[band_lo:], (n_new - n_short, cfg.window, head_dim),
                (x.strides[0],) + x.strides, writeable=False)
                for x in (keys, values)) if n_short < n_new else None
            for h0 in range(g_lo, g_hi, slab):
                h1 = min(h0 + slab, g_hi)
                if n_short:
                    out[h0:h1, :n_short] = _attend(q[h0:h1, :n_short],
                                                   short, keep=causal)
                if band is None:
                    continue
                pool = None
                if candidates:
                    # The slab is a stack of one unit.
                    pool_s, pool_c, passed, selected = span.select(
                        q[None, h0:h1], q_signs[None, h0:h1], [h0], [n_ctx],
                        [keys], [key_signs[kv_head]])
                    passed_total += int(passed[0])
                    selected_total += int(selected[0])
                    # Long rows, row-major; scores padded to top_k with
                    # -inf.  _PAD clips to the last key, at weight 0.
                    pool_s, pool_c = (x.reshape(h1 - h0, n_new, x.shape[1])[
                        :, n_short:].swapaxes(0, 1) for x in (pool_s, pool_c))
                    scores = np.full(pool_s.shape[:2] + (cfg.top_k,), -np.inf)
                    scores[..., :pool_s.shape[2]] = pool_s
                    pool = (scores, values.take(pool_c, axis=0, mode="clip"))
                out[h0:h1, n_short:] = _attend(
                    q[h0:h1, n_short:].swapaxes(0, 1), [sinks, band],
                    pool=pool).swapaxes(0, 1)
        metrics = self.obs.metrics
        if metrics.enabled:
            _record_split(metrics, n_q_heads * n_new,
                          int(np.minimum(n_i, n_dense).sum()) * n_q_heads,
                          candidates * n_q_heads, passed_total,
                          selected_total)
        return out

    # -- the decode routine ---------------------------------------------------

    def _row_layout(self, n_ctx: int) -> tuple[int, bool]:
        """``(panel width, pooled)`` of a decode row, from its context alone.

        Never from the batch: a row's width fixes its BLAS call shapes and
        the trees of its reductions, so it has to be the same whether the
        session is stepped alone or stacked with any neighbours.
        """
        cfg = self.config
        n_dense = cfg.n_sink + cfg.window
        if cfg.top_k and n_ctx > n_dense + cfg.top_k:
            return n_dense, True
        return (n_dense if n_ctx <= n_dense else n_dense + cfg.top_k), False

    def forward_cached_batch(self, layer: int, qs, caches) -> np.ndarray:
        """The decode routine: one query per session, sessions stacked.

        ``qs`` holds one ``(n_q_heads, 1, head_dim)`` query per session
        (a sequence, or the stacked array), ``caches`` the sessions' KV
        caches with the new token already appended; every backend of the
        batch must share this one's :meth:`stack_key`.  Returns the
        ``(n_sessions, n_q_heads, 1, head_dim)`` outputs.  Sessions are
        grouped by row layout (:meth:`_row_layout`) and each group runs
        scores, mask, softmax and P.V once (:meth:`_decode_rows`); a
        session's output is bit-identical whatever rides along.
        """
        q = np.asarray(qs)
        n_ctx = np.array([len(cache.layers[layer]) for cache in caches],
                         dtype=np.intp)
        layouts: Dict[tuple, list] = {}
        for i, n in enumerate(n_ctx.tolist()):
            layouts.setdefault(self._row_layout(n), []).append(i)
        if len(layouts) == 1:
            return self._decode_rows(layer, q, caches, n_ctx,
                                     *next(iter(layouts)))
        out = np.empty(q.shape, dtype=q.dtype)
        for layout, members in layouts.items():
            out[members] = self._decode_rows(
                layer, q[members], [caches[i] for i in members],
                n_ctx[members], *layout)
        return out

    def _decode_rows(self, layer: int, q: np.ndarray, caches,
                     n_ctx: np.ndarray, width: int,
                     pooled: bool) -> np.ndarray:
        """Attention for stacked decode rows of one layout.

        The two layouts and the batch-invariance argument are in the
        module docstring.  ``q`` is ``(n_sessions, n_q_heads, 1,
        head_dim)``, ``n_ctx`` the sessions' context lengths.
        """
        cfg = self.config
        n_s, n_q_heads, _, head_dim = q.shape
        n_dense = cfg.n_sink + cfg.window
        metrics = self.obs.metrics
        views = [cache.window_view(layer, width - cfg.n_sink, cfg.n_sink)
                 for cache in caches]
        n_kv_heads = views[0][0].shape[0]
        group = n_q_heads // n_kv_heads
        # Both panels in one uninitialised allocation, only each session's
        # pad tail zeroed.  Under glibc's default (adaptive) thresholds a
        # zeroed array is fresh pages on every call, and two
        # half-megabyte arrays freed together reach the trim threshold
        # (twice the largest freed chunk), so every call would pay
        # first-touch page faults; one chunk stays resident.
        k_panel, v_panel = np.empty(
            (2, n_s, n_kv_heads, width, head_dim), dtype=q.dtype)
        for s, (k, v, _) in enumerate(views):
            n = k.shape[1]
            k_panel[s, :, :n] = k
            k_panel[s, :, n:] = 0.0
            v_panel[s, :, :n] = v
            v_panel[s, :, n:] = 0.0
        q_g = q.reshape(n_s, n_kv_heads, group, head_dim)
        keep = pool = None
        passed = np.zeros(n_s, dtype=np.int64)    # per session, all heads
        selected = passed
        if pooled:
            # Every panel column (sinks + window) is attended; the pool
            # columns come from stages 1-4, every session at once.
            pool_s, pool_v, passed, selected = self._fill_pools(
                layer, q, caches, n_ctx, n_kv_heads)
            pool = (pool_s.reshape(q_g.shape[:-1] + (-1,)),
                    pool_v.reshape(q_g.shape[:-1] + pool_v.shape[-2:]))
        else:
            keep = (np.arange(width) < n_ctx[:, None])[:, None, None]
            if width > n_dense:
                keep, passed = self._filter_rows(layer, q_g, caches, views,
                                                 n_ctx, keep)
                selected = passed     # candidates <= top_k: all selected
        out = _attend(q_g, [(k_panel, v_panel)], keep, pool).reshape(
            n_s, n_q_heads, 1, head_dim)
        if metrics.enabled:
            # At top_k = 0 nothing is offloaded: no sparse candidates.
            offloaded = np.maximum(n_ctx - n_dense, 0) if cfg.top_k \
                else np.zeros_like(n_ctx)
            for s in range(n_s):
                _record_split(
                    metrics, n_q_heads,
                    int(min(n_ctx[s], n_dense)) * n_q_heads,
                    int(offloaded[s]) * n_q_heads,
                    int(passed[s]), int(selected[s]))
        return out

    def _fill_pools(self, layer: int, q: np.ndarray, caches,
                    n_ctx: np.ndarray, n_kv_heads: int
                    ) -> tuple[np.ndarray, np.ndarray, np.ndarray,
                               np.ndarray]:
        """Stages 1-4 for every pooled session of a decode call, at once.

        Each session's KV heads (slabs of them, when the slab rule splits
        a group) are the units of one :meth:`_SparseSpan.select` stack;
        K/V are read in place, through the caches' row readers —
        survivors' keys, selected values, the span's signs, never the
        context.  Returns every row's pool scores ``(n_sessions,
        n_q_heads, top_k)`` (-inf in an empty slot) and values
        ``(n_sessions, n_q_heads, top_k, head_dim)``, plus the keys passed
        and selected per session.
        """
        cfg = self.config
        n_s, n_q_heads, _, head_dim = q.shape
        group = n_q_heads // n_kv_heads
        kvs = [cache.layers[layer] for cache in caches]
        # A sign store packed under other rotations (or none: stateless
        # ``forward``) is the one case that still reads a whole context.
        signs = [kv.sign_rows if self._reads_sign_store(cache)
                 else self._pack_key_signs(layer, kv.keys).__getitem__
                 for cache, kv in zip(caches, kvs)]
        span = _SparseSpan(self, layer, n_q_heads, n_kv_heads, 1, head_dim)
        q_signs = self._query_signs(
            layer, q.reshape(n_s, n_kv_heads, group, 1, head_dim)
        ).reshape(n_s, n_q_heads, 1, -1)
        # Units of equal head count stack (at one query almost always the
        # whole group, so one stack): heads per unit -> (session, head 0).
        stacks: Dict[int, list] = {}
        for s, n in enumerate(n_ctx.tolist()):
            slab = span.slab_heads(n)
            for g_lo in range(0, n_q_heads, group):
                for h0 in range(g_lo, g_lo + group, slab):
                    stacks.setdefault(min(slab, g_lo + group - h0),
                                      []).append((s, h0))
        scores = np.full((n_s, n_q_heads, cfg.top_k), -np.inf)
        pool_v = np.empty(scores.shape + (head_dim,), dtype=q.dtype)
        passed = np.zeros(n_s, dtype=np.int64)
        selected = passed.copy()
        for n_heads, units in stacks.items():
            session, h0 = np.array(units).T
            at = (session[:, None], h0[:, None] + np.arange(n_heads))
            unit_ctx = n_ctx[session]
            pool_s, pool_c, n_pass, n_sel = span.select(
                q[at], q_signs[at], h0, unit_ctx,
                [kvs[s].key_rows(h // group) for s, h in units],
                [signs[s](h // group) for s, h in units])
            pool_w = pool_s.shape[1]
            scores[at + (slice(pool_w),)] = pool_s.reshape(
                len(units), n_heads, pool_w)
            pool_c = pool_c.reshape(len(units), n_heads, pool_w)
            for (s, h), cols, unit_pass, unit_sel in zip(
                    units, pool_c, n_pass.tolist(), n_sel.tolist()):
                passed[s] += unit_pass
                selected[s] += unit_sel
                # An empty slot clips to the last key; its weight is 0.
                pool_v[s, h:h + n_heads, :pool_w] = kvs[s].value_rows(
                    h // group).take(cols, axis=0, mode="clip")
                pool_v[s, h:h + n_heads, pool_w:] = 0.0
        return scores, pool_v, passed, selected

    def _filter_rows(self, layer: int, q_g: np.ndarray, caches, views,
                     n_ctx: np.ndarray, valid: np.ndarray
                     ) -> tuple[np.ndarray, np.ndarray]:
        """Stage 1 for stacked whole-context rows.

        Returns the ``(n_sessions, n_kv_heads, group, width)`` mask of the
        columns each head attends — its dense columns plus the candidates
        that pass the filter, which with ``candidates <= top_k`` are
        exactly the selected set — and the keys passed per session.
        """
        cfg = self.config
        n_s, n_kv_heads, group, head_dim = q_g.shape
        n_q_heads = n_kv_heads * group
        width = valid.shape[-1]
        key_signs = [self._key_signs(layer, cache, k)
                     for cache, (k, _, _) in zip(caches, views)]
        signs = np.empty((n_s, n_kv_heads, width, key_signs[0].shape[-1]),
                         dtype=np.uint8)
        for s, ks in enumerate(key_signs):
            signs[s, :, :ks.shape[1]] = ks      # pad columns are masked
        q_signs = self._query_signs(layer, q_g[:, :, :, None])[:, :, :, 0]
        with self.obs.tracer.span("scf_filter", layer=layer):
            mism = mismatches_packed(q_signs, signs)
        bounds = self._pass_bounds(layer, n_q_heads, group, head_dim)
        cols = np.arange(width)
        span = ((cols >= cfg.n_sink)
                & (cols < (n_ctx - cfg.window)[:, None]))[:, None, None]
        passed = span & (mism < bounds.reshape(n_kv_heads, group, 1).astype(
            mism.dtype))
        counts = passed.sum(axis=-1).reshape(n_s, n_q_heads)
        if self.stats is not None or self.selection_capture is not None:
            per_q = _stats_per_q(self.stats, n_q_heads, n_kv_heads)
            for s, h in np.ndindex(n_s, n_q_heads):
                if self.stats is not None:
                    self.stats.update(
                        layer, h if per_q else h // group,
                        candidates=int(n_ctx[s]) - cfg.n_sink - cfg.window,
                        passed=int(counts[s, h]),
                        retrieved=int(counts[s, h]), queries=1)
                if self.selection_capture is not None:
                    self.selection_capture[(layer, h)] = passed[
                        s, h // group, h % group, None, :n_ctx[s]].copy()
        return passed | (valid & ~span), counts.sum(axis=1)


class SlidingWindowAttention(LongSightAttention):
    """Dense sinks + sliding window only (StreamingLLM-style baseline).

    The hybrid with nothing retrieved: :class:`LongSightAttention` at
    ``top_k = 0``, whose rows read the sink and window columns only — the
    cost per query is O(n_sink + window + n_new), independent of context
    length.  ``window < 1`` is a ``ValueError`` (the config's check).
    """

    def __init__(self, window: int = 1024, n_sink: int = 16) -> None:
        super().__init__(LongSightConfig(window=window, n_sink=n_sink,
                                         top_k=0))
