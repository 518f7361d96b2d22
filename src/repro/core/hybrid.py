"""Hybrid dense–sparse attention backends (Sections 5.3 and 6).

:class:`LongSightAttention` is the software analogue of the paper's
``LongSightAttn`` PyTorch module: per query it attends densely to
``n_sink`` early tokens plus the ``window`` most recent tokens (what the GPU
keeps in HBM) and sparsely — via SCF filtering and top-k — to everything in
between (what lives in DReX).  A single softmax then runs over the combined
dense + sparse score set, exactly as in Figure 2b step 6.

There is one implementation, :meth:`LongSightAttention._forward_block`, for
every query count: a decode step is the kernel at ``n_new = 1``, a prefill
chunk the kernel at ``n_new = 256``.  The entry points only resolve the
packed key signs — read from the KV cache's incremental sign store
(``LayerKV.packed_signs``, the software analogue of DReX reusing stored
Key Sign Objects for every query) or packed from the keys — and the kernel
runs five stages per KV head, *slab* of that head's GQA group, and key tile
of the sparse span:

1. *filter* — packed mismatch counts (one XOR+popcount), thresholded per
   head in the counts' own unsigned dtype; the causal limit is applied
   only on the trailing columns where it can cut;
2. *score* — one BLAS GEMM per head, in the reference loop's shape;
3. *compact* — each row's survivors left-aligned into ``(rows, max
   survivors per row)`` score/column arrays;
4. *select* — the compacted tile joins the per-row pool carried from
   earlier tiles; top-k runs only if the merged width exceeds ``top_k``;
5. *attend* — one softmax over ``sinks + window ++ pool`` with gathered
   values.

Float work is done for survivors only, as DReX's PIM Filter Units never
score a filtered-out key, and stages 3–5 cost O(survivors), not
O(candidates).  Compaction is row-major, so columns stay ascending within
a row and across tiles, and :func:`~repro.core.topk.top_k_mask`'s
lower-index tie-break picks exactly the keys full-width selection picks.

Two rules size the work from the inputs; neither changes a selection:

- **slab** — stages 2–5 run on the stacked rows of as many heads of the
  group as keep ``rows x max(tile width, dense columns, top_k x head_dim)``
  (the score, dense and gathered-value temporaries) under
  ``_SLAB_ELEMS``: a 256-query block goes one head at a time, a decode
  step takes the whole group through one compaction, one top-k and one
  softmax.  Scores stay one GEMM per head (stacked ``np.matmul``);
- **gather** — when the columns any row of the slab kept are under half
  the tile, stage 2 scores only those (``keys[cols]``), which keeps decode
  O(passed) at selective thresholds; otherwise it slices the whole tile,
  which is cheaper once most columns survive for some row (prefill).

``LongSightConfig.prefill_tile`` bounds the kernel's working set and
nothing else: 0 is one tile over the whole span, and every tile size
selects the same keys (``tests/core/test_tiled_prefill.py``).  The
correctness oracle — the original per-head loop over full-width masks —
is :class:`repro.core.reference.ReferenceAttention`; selected key sets
match it exactly and outputs to float round-off
(``tests/core/test_fast_equivalence.py``,
``tests/core/test_block_prefill.py``).

:class:`SlidingWindowAttention` is the StreamingLLM-style baseline of
Section 8.2 / Figure 10: sinks + window only, no sparse component.  It
gathers just the sink+window columns, so its per-query cost is O(window),
not O(context).
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple, TYPE_CHECKING

import numpy as np

from repro.core.config import LongSightConfig
from repro.core.itq import ItqRotations
from repro.core.metrics import FilterStats
from repro.obs import Obs, resolve_obs
from repro.core.scf import mismatches_packed, pack_signs
from repro.core.topk import top_k_mask
from repro.llm.ops import softmax

if TYPE_CHECKING:
    from repro.llm.kv_cache import KVCache

#: Element bound on one slab's score / dense / gathered-value temporaries
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


def _region_masks(q_positions: np.ndarray, n_ctx: int, n_sink: int,
                  window: int,
                  key_positions: Optional[np.ndarray] = None
                  ) -> tuple[np.ndarray, np.ndarray]:
    """(dense, sparse-candidate) boolean masks, each ``(n_q, n_keys)``.

    ``dense`` covers sinks plus the sliding window (clipped causally);
    ``sparse`` is the causal remainder — the region LongSight offloads.
    By default keys are the full context ``0..n_ctx-1``; ``key_positions``
    restricts the masks to a gathered subset of columns (used by the
    O(window) sliding-window baseline).
    """
    if key_positions is None:
        j = np.arange(n_ctx)[None, :]
    else:
        j = np.asarray(key_positions)[None, :]
    p = np.asarray(q_positions)[:, None]
    causal = j <= p
    dense = ((j < n_sink) | (j > p - window)) & causal
    sparse = causal & ~dense
    return dense, sparse


def _dense_region(n_ctx: int, n_new: int, n_sink: int,
                  window: int) -> tuple[np.ndarray, np.ndarray]:
    """A query block's dense columns and ``(n_new, n_cols)`` dense mask.

    The columns are the union over the block: sinks plus the window of its
    *oldest* query, O(window + n_new) of them whatever the context length.
    """
    sink_end = min(n_sink, n_ctx)
    start = max(sink_end, n_ctx - n_new - window + 1)
    cols = np.concatenate([np.arange(sink_end), np.arange(start, n_ctx)])
    dense_mask, _ = _region_masks(np.arange(n_ctx - n_new, n_ctx), n_ctx,
                                  n_sink, window, key_positions=cols)
    return cols, dense_mask


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
        if config.use_itq and rotations is None:
            raise ValueError("use_itq requires an ItqRotations bank")
        self.config = config
        self.rotations = rotations
        self.stats = stats
        self.obs = resolve_obs(obs)
        self.selection_capture: Optional[Dict[Tuple[int, int], np.ndarray]] = None
        self._dense_fallback: Optional["SlidingWindowAttention"] = None

    def with_config(self, config: LongSightConfig) -> "LongSightAttention":
        """A variant backend with swapped retrieval knobs, shared state.

        The serving brownout ladder serves some tokens at reduced
        ``top_k`` / raised ``thresholds``; both are query-time knobs (the
        stored packed-sign layout is identical across variants), so the
        variant can read the same KV cache.  Rotations and the obs bundle
        are shared; stats/selection capture are not (variants are
        transient quality levels, not measurement subjects).
        """
        return LongSightAttention(config, rotations=self.rotations,
                                  obs=self.obs)

    # -- entry points: resolve the key signs, run the kernel --------------------

    def prepare_cache(self, cache: "KVCache") -> None:
        """Enable the cache's incremental sign store for this backend.

        Called by :class:`Transformer` before prefill/decode (duck-typed
        hook).  Idempotent.
        """
        cache.enable_sign_cache(
            self.rotations if self.config.use_itq else None)

    def _pack_key_signs(self, layer: int, k: np.ndarray) -> np.ndarray:
        """``(n_kv_heads, n_ctx, n_bytes)`` packed (rotated) signs of ``k``."""
        if self.config.use_itq:
            k = np.matmul(k, self.rotations.matrices[layer])
        return pack_signs(k)

    def forward_cached(self, layer: int, q: np.ndarray,
                       cache: "KVCache") -> np.ndarray:
        """Cache-aware forward: consumes the sign store when compatible."""
        kv = cache.layers[layer]
        keys = kv.keys
        expected = self.rotations if self.config.use_itq else None
        if kv.sign_cache_enabled and cache.sign_rotations is expected:
            key_signs = kv.packed_signs
        else:
            key_signs = self._pack_key_signs(layer, keys)
        return self._forward_block(layer, q, keys, kv.values, key_signs)

    def forward_cached_batch(self, layer: int, qs, caches) -> list:
        """:meth:`forward_cached` for each session of a decode batch."""
        # Nothing under src/ calls this; perf/spans.py looks the name up in
        # the class __dict__ and cannot be edited with this package.
        return [self.forward_cached(layer, q, c) for q, c in zip(qs, caches)]

    def forward(self, layer: int, q: np.ndarray, k: np.ndarray,
                v: np.ndarray) -> np.ndarray:
        return self._forward_block(layer, q, k, v,
                                   self._pack_key_signs(layer, k))

    # -- degradation target ---------------------------------------------------

    def dense_fallback(self) -> "SlidingWindowAttention":
        """The correctness anchor when the sparse path is unavailable.

        Sinks + sliding window with this config's geometry — exactly what
        the hybrid algorithm computes when the offload contributes nothing.
        The offload supervisor degrades to this per token when a DReX
        device fails past its retry budget; it is also the exact software
        semantics of a supervised backend at 100% offload failure.
        """
        if self._dense_fallback is None:
            self._dense_fallback = SlidingWindowAttention(
                window=self.config.window, n_sink=self.config.n_sink)
        return self._dense_fallback

    def forward_dense_only(self, layer: int, q: np.ndarray, k: np.ndarray,
                           v: np.ndarray) -> np.ndarray:
        """Hybrid attention with the sparse component dropped (degraded)."""
        return self.dense_fallback().forward(layer, q, k, v)

    # -- the kernel -----------------------------------------------------------

    def _forward_block(self, layer: int, q: np.ndarray, k: np.ndarray,
                       v: np.ndarray, key_signs: np.ndarray) -> np.ndarray:
        """Filter -> score -> compact -> select -> attend, any query count.

        The five stages, the slab and gather rules and the exact-selection
        argument are laid out in the module docstring.  ``key_signs`` is
        the ``(n_kv_heads, n_ctx, n_bytes)`` packed sign store (already
        rotated when ITQ is on).  Selections equal
        :class:`~repro.core.reference.ReferenceAttention`'s exactly and
        outputs match it to float round-off (the softmax sums the same
        finite terms in a different grouping).
        """
        cfg = self.config
        n_q_heads, n_new, head_dim = q.shape
        n_kv_heads, n_ctx, _ = k.shape
        group = n_q_heads // n_kv_heads
        scale = 1.0 / np.sqrt(head_dim)
        q_positions = np.arange(n_ctx - n_new, n_ctx)
        neg_inf = -np.inf
        top_k = cfg.top_k
        per_q = _stats_per_q(self.stats, n_q_heads, n_kv_heads)
        tracer = self.obs.tracer

        dense_cols, dense_mask = _dense_region(n_ctx, n_new, cfg.n_sink,
                                               cfg.window)
        n_dense = len(dense_cols)

        # Sparse span: row p may select columns in [n_sink, p - window].
        # Same count the reference gets from sparse_mask.sum().
        span_lo, span_hi = cfg.n_sink, n_ctx - cfg.window
        candidates = int(np.maximum(
            q_positions - cfg.window - cfg.n_sink + 1, 0).sum())
        any_sparse = candidates > 0
        tile = 0
        if any_sparse:
            q_f = q.reshape(n_kv_heads, group, n_new, head_dim)
            if cfg.use_itq:
                q_f = np.matmul(q_f, self.rotations.matrices[layer][:, None])
            q_signs = pack_signs(q_f).reshape(n_q_heads, n_new, -1)
            tile = min(cfg.prefill_tile or n_ctx, span_hi - span_lo)
            # conc >= threshold  <=>  mismatches < floor(d - threshold) + 1,
            # clipped so that it compares in the counts' unsigned dtype:
            # 0 passes nothing (threshold > d), d + 1 everything.
            bounds = np.array([np.floor(head_dim - cfg.threshold_for(
                layer, h // group, h)) + 1 for h in range(n_q_heads)]
            ).clip(0, head_dim + 1)
            # Columns at or below the first query's limit are candidates
            # for every row; only the tail beyond it needs the causal cut.
            tail_lo = max(span_lo, int(q_positions[0]) - cfg.window + 1)
            causal_tail = (np.arange(tail_lo, span_hi)[None, :]
                           <= (q_positions - cfg.window)[:, None])
        slab = max(1, _SLAB_ELEMS // (n_new * max(tile, n_dense,
                                                  top_k * head_dim)))

        passed_total = selected_total = 0
        out = np.empty_like(q)
        for kv_head in range(n_kv_heads):
            keys = k[kv_head]
            values = v[kv_head]
            kg = keys[dense_cols]
            vg = values[dense_cols]
            g_hi = (kv_head + 1) * group
            for h0 in range(kv_head * group, g_hi, slab):
                h1 = min(h0 + slab, g_hi)
                n_heads = h1 - h0
                rows = n_heads * n_new        # heads stacked, head-major
                q_s = q[h0:h1]
                combined = np.where(
                    dense_mask, np.matmul(q_s, kg.T) * scale,
                    neg_inf).reshape(rows, n_dense)
                if any_sparse:
                    # Per-row pools of the best (score, column) pairs so
                    # far, left-aligned in ascending column order; column
                    # n_ctx pads a row (score -inf, sorts after every real
                    # column).
                    pool_s = np.empty((rows, 0))
                    pool_c = np.empty((rows, 0), dtype=np.int64)
                    passed = np.zeros(n_heads, dtype=np.int64)
                    for t0 in range(span_lo, span_hi, tile):
                        t1 = min(t0 + tile, span_hi)
                        with tracer.span("scf_filter", layer=layer):
                            mism = mismatches_packed(
                                q_signs[h0:h1], key_signs[kv_head, None,
                                                          t0:t1])
                        pass_t = mism < bounds[h0:h1, None, None].astype(
                            mism.dtype)                   # (S, n_new, T)
                        if t1 > tail_lo:
                            pass_t[..., max(tail_lo - t0, 0):] &= causal_tail[
                                :, max(t0 - tail_lo, 0): t1 - tail_lo]
                        pass_t = pass_t.reshape(rows, t1 - t0)
                        cols = pass_t.any(axis=0).nonzero()[0]
                        if 2 * len(cols) < t1 - t0:
                            pass_t = pass_t[:, cols]
                            keys_t = keys[cols + t0]
                        else:
                            cols = None
                            keys_t = keys[t0:t1]
                        # Upcast before transposing: left to matmul, the
                        # cast of the transposed view is a strided copy.
                        keys_t = keys_t.astype(q.dtype, copy=False)
                        src, dest, shape, counts = _left_align(pass_t)
                        passed += counts.reshape(n_heads, n_new).sum(axis=1)
                        if not len(src) or not top_k:
                            continue          # tile contributes nothing
                        # Scale survivors only: the same float op per
                        # entry as the reference's full-width scaling.
                        scores = np.matmul(q_s, keys_t.T).ravel()[src] * scale
                        col = src % pass_t.shape[1]
                        if cols is not None:
                            col = cols[col]
                        merged_s = np.concatenate(
                            [pool_s, _padded(scores, dest, shape, neg_inf)],
                            axis=1)
                        merged_c = np.concatenate(
                            [pool_c, _padded(col + t0, dest, shape, n_ctx)],
                            axis=1)
                        if merged_s.shape[1] > top_k:
                            keep = top_k_mask(merged_s, top_k)
                            src, dest, shape, _ = _left_align(keep)
                            merged_s = _padded(merged_s.ravel()[src], dest,
                                               shape, neg_inf)
                            merged_c = _padded(merged_c.ravel()[src], dest,
                                               shape, n_ctx)
                        pool_s, pool_c = merged_s, merged_c
                    passed_total += int(passed.sum())
                    valid = (pool_c < n_ctx).reshape(n_heads, n_new, -1)
                    retrieved = valid.sum(axis=(1, 2))
                    selected_total += int(retrieved.sum())
                    for i, h in enumerate(range(h0, h1)):
                        if self.stats is not None:
                            self.stats.update(
                                layer, h if per_q else kv_head,
                                candidates=candidates,
                                passed=int(passed[i]),
                                retrieved=int(retrieved[i]), queries=n_new)
                        if self.selection_capture is not None:
                            sel_mask = np.zeros((n_new, n_ctx), dtype=bool)
                            r, slots = np.nonzero(valid[i])
                            sel_mask[r, pool_c[i * n_new + r, slots]] = True
                            self.selection_capture[(layer, h)] = sel_mask
                    combined = np.concatenate([combined, pool_s], axis=1)
                probs = softmax(combined, axis=-1)
                out_s = np.matmul(
                    probs[:, :n_dense].reshape(n_heads, n_new, n_dense), vg)
                if combined.shape[1] > n_dense:
                    # Pad columns clip to the last key; their weight is 0.
                    v_sel = values.take(pool_c, axis=0, mode="clip")
                    out_s += np.einsum("nk,nkd->nd", probs[:, n_dense:],
                                       v_sel).reshape(out_s.shape)
                out[h0:h1] = out_s
        metrics = self.obs.metrics
        if metrics.enabled:
            _record_split(metrics, n_q_heads * n_new,
                          int(dense_mask.sum()) * n_q_heads,
                          candidates * n_q_heads, passed_total,
                          selected_total)
        return out


class SlidingWindowAttention:
    """Dense sinks + sliding window only (StreamingLLM-style baseline).

    Only the sink and window columns are gathered and scored, so the cost
    per query is O(n_sink + window + n_new), independent of context length.
    """

    def __init__(self, window: int = 1024, n_sink: int = 16) -> None:
        if window < 1:
            raise ValueError("window must be >= 1")
        self.window = window
        self.n_sink = n_sink

    def forward(self, layer: int, q: np.ndarray, k: np.ndarray,
                v: np.ndarray) -> np.ndarray:
        n_q_heads, n_new, head_dim = q.shape
        n_kv_heads, n_ctx, _ = k.shape
        group = n_q_heads // n_kv_heads
        scale = 1.0 / np.sqrt(head_dim)
        cols, dense_mask = _dense_region(n_ctx, n_new, self.n_sink,
                                         self.window)
        kg = k[:, cols]                                # (Hkv, n_cols, d)
        vg = v[:, cols]
        q5 = q.reshape(n_kv_heads, group, n_new, head_dim)
        scores = np.matmul(q5, np.swapaxes(kg, -1, -2)[:, None]) * scale
        final = np.where(dense_mask, scores, -np.inf)
        probs = softmax(final, axis=-1)
        out = np.matmul(probs, vg[:, None])
        return out.reshape(n_q_heads, n_new, head_dim)
