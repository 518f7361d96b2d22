"""Hybrid dense–sparse attention backends (Sections 5.3 and 6).

:class:`LongSightAttention` is the software analogue of the paper's
``LongSightAttn`` PyTorch module: per query it attends densely to
``n_sink`` early tokens plus the ``window`` most recent tokens (what the GPU
keeps in HBM) and sparsely — via SCF filtering and top-k — to everything in
between (what lives in DReX).  A single softmax then runs over the combined
dense + sparse score set, exactly as in Figure 2b step 6.

Two implementations of the same algorithm live side by side:

- the **fast path** (default) filters on packed sign words — one
  XOR+popcount per KV head, shared by its whole GQA group and read
  straight from the KV cache's incremental sign store when available
  (``LayerKV.packed_signs``, the software analogue of DReX reusing stored
  Key Sign Objects for every query) — and does float work only for
  survivors, as DReX's PIM Filter Units never score a filtered-out key.
  Decode-sized query blocks (at most ``_PACKED_CONC_MAX_NEW`` queries)
  score the gathered union of dense and passing columns
  (:meth:`LongSightAttention._attend_small_gathered`, shared with the
  session-batched decode).  Larger blocks run the one block prefill
  kernel, :meth:`LongSightAttention._forward_block`, per KV head and key
  tile of the sparse span:

  1. *filter* — packed mismatch counts for the GQA group, thresholded in
     uint8; the causal limit is applied only on the trailing columns
     where it can cut;
  2. *score* — one BLAS GEMM per head on the contiguous key slice;
  3. *compact* — each row's survivors left-aligned into ``(n_new, max
     survivors per row)`` score/column arrays;
  4. *select* — the compacted tile joins the per-row pool carried from
     earlier tiles; top-k runs only if the merged width exceeds ``top_k``;
  5. *attend* — one softmax over ``sinks + window ++ pool`` with gathered
     values.

  Stages 3–5 cost O(survivors), not O(candidates).  Compaction is
  row-major, so columns stay ascending within a row and across tiles, and
  :func:`~repro.core.topk.top_k_mask`'s lower-index tie-break picks
  exactly the keys full-width selection picks.
  ``LongSightConfig.prefill_tile`` bounds the kernel's working set
  (``(group, n_new, tile)`` counts, one ``(n_new, tile)`` score array) and
  nothing else: 0 is one tile over the whole span, and every tile size
  selects the same keys (``tests/core/test_tiled_prefill.py``);
- the **reference path** (``use_fast_path=False``): the original per-head
  Python loop over full-width masks, kept as the correctness oracle.  The
  two are equivalent — selected key sets match exactly and outputs match
  to float round-off (``tests/core/test_fast_equivalence.py``,
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
from repro.core.scf import (concordance, concordance_packed_many,
                            concordance_packed_sessions, mismatches_packed,
                            pack_signs)
from repro.core.topk import top_k_mask
from repro.llm.ops import softmax

if TYPE_CHECKING:
    from repro.llm.kv_cache import KVCache

#: Largest query-block size handled by the head-batched gathered path,
#: whose concordance is one ``(Hkv, G, n_new, n_ctx)`` int64 array and
#: whose scores cover the union of every row's passing columns.  Larger
#: (prefill-sized) blocks run the block kernel, which keeps per-row
#: survivor sets and a tile-bounded working set instead.
_PACKED_CONC_MAX_NEW = 32

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


def _left_align(mask: np.ndarray) -> tuple[np.ndarray, np.ndarray, tuple]:
    """Flat indices that left-align each row's True entries of ``mask``.

    Returns ``(src, dest, shape)``: ``src`` are the flat positions of the
    True entries in row-major order (so columns stay ascending within a
    row), ``dest`` their flat positions in a ``shape = (n_rows, max True
    per row)`` array with each row's entries packed to the left.
    """
    n_rows, n_cols = mask.shape
    src = np.flatnonzero(mask)
    # src is sorted, so row r's entries end where r's flat range ends.
    ends = np.searchsorted(src, np.arange(1, n_rows + 1) * n_cols)
    counts = np.diff(ends, prepend=0)
    width = int(counts.max()) if n_rows else 0
    dest = np.arange(len(src)) + np.repeat(
        np.arange(n_rows) * width - (ends - counts), counts)
    return src, dest, (n_rows, width)


def _padded(values: np.ndarray, dest: np.ndarray, shape: tuple,
            fill) -> np.ndarray:
    """``values`` scattered to flat positions ``dest`` of a ``fill`` array."""
    out = np.full(shape, fill, dtype=values.dtype)
    out.ravel()[dest] = values
    return out


class LongSightAttention:
    """Hybrid dense+sparse attention backend for :class:`Transformer`.

    Args:
        config: algorithm hyper-parameters (window, sinks, k, thresholds).
        rotations: optional ITQ rotation bank; required when
            ``config.use_itq`` is set.
        stats: optional :class:`FilterStats` to accumulate access counters
            into (callers typically reset it between measurements).
        use_fast_path: run the head-batched/packed implementation (default);
            ``False`` selects the per-head reference loop.
        obs: observability bundle; ``None`` binds the process-global
            default (metrics on, tracing off).  Metrics never change the
            computation — outputs are bit-identical either way.

    The backend is stateless across calls apart from ``stats`` and the
    optional ``selection_capture`` debug dict: when set to a dictionary,
    every forward stores the selected sparse-key mask per
    ``(layer, q_head)`` — the equivalence suite uses this to compare the
    two paths' selections bit-for-bit.
    """

    def __init__(self, config: LongSightConfig,
                 rotations: Optional[ItqRotations] = None,
                 stats: Optional[FilterStats] = None,
                 use_fast_path: bool = True,
                 obs: Optional[Obs] = None) -> None:
        if config.use_itq and rotations is None:
            raise ValueError("use_itq requires an ItqRotations bank")
        self.config = config
        self.rotations = rotations
        self.stats = stats
        self.use_fast_path = use_fast_path
        self.obs = resolve_obs(obs)
        self.selection_capture: Optional[Dict[Tuple[int, int], np.ndarray]] = None
        self._dense_fallback: Optional["SlidingWindowAttention"] = None
        # Per-(layer, heads) threshold stacks, rebuilt if the config's
        # thresholds object is swapped (tuning replaces whole configs, so
        # identity is a sufficient staleness check).  One backend instance
        # is shared by every session of a serving batch; without the memo
        # the packed decode path re-runs the python head loops for each
        # (session, layer, token).
        self._threshold_cache: Dict[Tuple[int, int, int], np.ndarray] = {}
        self._threshold_cache_key: Optional[int] = None

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
                                  use_fast_path=self.use_fast_path,
                                  obs=self.obs)

    # -- cache integration ----------------------------------------------------

    def prepare_cache(self, cache: "KVCache") -> None:
        """Enable the cache's incremental sign store for this backend.

        Called by :class:`Transformer` before prefill/decode (duck-typed
        hook).  Idempotent; a no-op on the reference path, which never
        consumes packed signs.
        """
        if self.use_fast_path:
            cache.enable_sign_cache(
                self.rotations if self.config.use_itq else None)

    def forward_cached(self, layer: int, q: np.ndarray,
                       cache: "KVCache") -> np.ndarray:
        """Cache-aware forward: consumes the sign store when compatible."""
        kv = cache.layers[layer]
        if not self.use_fast_path:
            return self._forward_reference(layer, q, kv.keys, kv.values)
        key_signs = None
        expected = self.rotations if self.config.use_itq else None
        if kv.sign_cache_enabled and cache.sign_rotations is expected:
            key_signs = kv.packed_signs
        return self._forward_fast(layer, q, kv.keys, kv.values, key_signs)

    def decode_batch_compatible(self) -> bool:
        """May this backend join a session-batched decode filter call?

        The batched kernel reproduces the fast path bit-for-bit, so only
        the reference loop and debug selection capture opt a session out.
        """
        return self.use_fast_path and self.selection_capture is None

    def forward_cached_batch(self, layer: int, qs, caches, backends=None,
                             scratch=None):
        """Decode-step attention for many sessions, one filter kernel call.

        The serving analogue of :meth:`forward_cached`: ``qs[i]`` is
        session ``i``'s single-token query block and ``caches[i]`` its KV
        cache.  Scores, top-k, and softmax stay per-session (identical
        GEMM shapes — see :meth:`_forward_fast`'s batching note), but the
        packed-sign XOR+popcount concordance runs **once** for the whole
        batch across sessions *and* heads, padding the ragged per-session
        key-sign stores into ``scratch``.  Outputs are bit-identical to
        calling :meth:`forward_cached` per session.

        Args:
            layer: decoder layer index.
            qs: per-session ``(n_q_heads, 1, head_dim)`` query blocks.
            caches: per-session KV caches (plain or paged).
            backends: per-session :class:`LongSightAttention` instances
                (default: ``self`` serves every session); each session's
                thresholds/rotations/stats resolve through its own backend.
            scratch: optional :class:`~repro.core.scf.SignScratch` reused
                across layers and steps for the padded key-sign staging.

        Returns:
            list of ``(n_q_heads, 1, head_dim)`` outputs, one per session.
        """
        n_sessions = len(qs)
        if backends is None:
            backends = [self] * n_sessions
        outputs: list = [None] * n_sessions

        # Per-session geometry and region masks (cheap at n_new=1).  Scores
        # are NOT computed here: the gathered attend below scores only the
        # dense and filter-passing columns, so the batch never pays a
        # full-context gemm per session.
        per = []
        sparse_sessions = []
        for i in range(n_sessions):
            backend = backends[i]
            cfg = backend.config
            q = qs[i]
            kv = caches[i].layers[layer]
            n_q_heads, n_new, head_dim = q.shape
            if n_new != 1:
                raise ValueError("forward_cached_batch is decode-only "
                                 "(one query per session)")
            # Geometry from the layer's own fields: on a paged cache with
            # non-contiguous blocks every ``kv.keys`` read is a full copy.
            n_kv_heads = kv.n_kv_heads
            group = n_q_heads // n_kv_heads
            n_ctx = len(kv)
            q_positions = np.arange(n_ctx - 1, n_ctx)
            dense_mask, sparse_mask = _region_masks(
                q_positions, n_ctx, cfg.n_sink, cfg.window)
            q5 = q.reshape(n_kv_heads, group, 1, head_dim)
            entry = {"backend": backend, "kv": kv, "cache": caches[i],
                     "q5": q5, "dense": dense_mask,
                     "sparse": sparse_mask, "n_ctx": n_ctx,
                     "geometry": (n_kv_heads, group, head_dim)}
            per.append(entry)
            if bool(sparse_mask.any()):
                sparse_sessions.append(i)

        # One packed concordance call across every session with candidates.
        conc_by_session = {}
        if sparse_sessions:
            tracer = self.obs.tracer
            with tracer.span("scf_filter_batch", layer=layer,
                             sessions=len(sparse_sessions)):
                q_signs = []
                key_signs = []
                for i in sparse_sessions:
                    entry = per[i]
                    backend = entry["backend"]
                    cfg = backend.config
                    kv = entry["kv"]
                    if cfg.use_itq:
                        rot = backend.rotations.matrices[layer]
                        q_f = np.matmul(entry["q5"], rot[:, None])
                    else:
                        q_f = entry["q5"]
                    q_signs.append(pack_signs(q_f))
                    expected = backend.rotations if cfg.use_itq else None
                    if kv.sign_cache_enabled \
                            and entry["cache"].sign_rotations is expected:
                        key_signs.append(kv.packed_signs)
                    else:
                        keys = kv.keys
                        key_signs.append(pack_signs(
                            np.matmul(keys, rot) if cfg.use_itq else keys))
                head_dim = per[sparse_sessions[0]]["geometry"][2]
                conc = concordance_packed_sessions(
                    np.stack(q_signs), key_signs, head_dim, scratch=scratch)
                for slot, i in enumerate(sparse_sessions):
                    conc_by_session[i] = conc[slot, ..., : per[i]["n_ctx"]]

        # Per-session selection, softmax, and output — the *same* gathered
        # attend as :meth:`_forward_fast`, so solo and batched decode stay
        # bit-identical by construction.
        for i in range(n_sessions):
            entry = per[i]
            backend = entry["backend"]
            n_kv_heads, group, _ = entry["geometry"]
            conc = conc_by_session.get(i)
            thresholds = backend._threshold_stack(layer, n_kv_heads, group) \
                if conc is not None else None
            outputs[i] = backend._attend_small_gathered(
                layer, entry["q5"], entry["kv"].keys, entry["kv"].values,
                conc, entry["dense"], entry["sparse"], thresholds)
        return outputs

    # -- protocol entry point -------------------------------------------------

    def forward(self, layer: int, q: np.ndarray, k: np.ndarray,
                v: np.ndarray) -> np.ndarray:
        if self.use_fast_path:
            return self._forward_fast(layer, q, k, v, None)
        return self._forward_reference(layer, q, k, v)

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

    # -- shared helpers -------------------------------------------------------

    def _stats_per_q(self, n_q_heads: int, n_kv_heads: int) -> bool:
        # Stats may be tracked at KV-head or query-head resolution; the
        # stats object's head-axis width decides (the finer resolution is
        # used by the threshold-granularity ablation).
        return (self.stats is not None
                and self.stats.n_kv_heads == n_q_heads
                and n_q_heads != n_kv_heads)

    # -- fast path ------------------------------------------------------------

    def _forward_fast(self, layer: int, q: np.ndarray, k: np.ndarray,
                      v: np.ndarray,
                      key_signs: Optional[np.ndarray]) -> np.ndarray:
        """Head-batched hybrid attention.

        ``key_signs`` is an optional ``(n_kv_heads, n_ctx, n_bytes)`` packed
        sign store (already rotated when ITQ is on); when absent, signs are
        extracted here once per KV head — still shared by the whole GQA
        group, never recomputed per query head.  Query blocks larger than
        ``_PACKED_CONC_MAX_NEW`` (prefill) divert to
        :meth:`_forward_block`.

        Batching note: every matmul keeps one gemm per (kv_head, q_head)
        slice with the same row count as the reference loop, so results are
        bit-identical to it (merging a GQA group into a single gemm would
        change blocking and drift in the last ulp).

        Small blocks run the concordance filter *before* any score work and
        then score only the dense-union and filter-passing columns
        (:meth:`_attend_small_gathered`) — the software twin of DReX's PIM
        Filter Units, which never compute scores for filtered-out keys.
        At long context this is what makes decode O(passed) instead of
        O(n_ctx) in float work.
        """
        if q.shape[1] > _PACKED_CONC_MAX_NEW:
            return self._forward_block(layer, q, k, v, key_signs)
        cfg = self.config
        n_q_heads, n_new, head_dim = q.shape
        n_kv_heads, n_ctx, _ = k.shape
        group = n_q_heads // n_kv_heads
        q_positions = np.arange(n_ctx - n_new, n_ctx)
        dense_mask, sparse_mask = _region_masks(
            q_positions, n_ctx, cfg.n_sink, cfg.window)
        q5 = q.reshape(n_kv_heads, group, n_new, head_dim)

        conc = thresholds = None
        if bool(sparse_mask.any()):
            if cfg.use_itq:
                rot = self.rotations.matrices[layer]  # (Hkv, d, d)
                q_f = np.matmul(q5, rot[:, None])
            else:
                q_f = q5
            with self.obs.tracer.span("scf_filter", layer=layer):
                q_signs = pack_signs(q_f)             # (Hkv, G, n_new, nb)
                if key_signs is None:
                    keys_f = np.matmul(k, rot) if cfg.use_itq else k
                    key_signs = pack_signs(keys_f)    # (Hkv, n_ctx, nb)
                conc = concordance_packed_many(
                    q_signs, key_signs[:, None], head_dim)
            thresholds = self._threshold_stack(layer, n_kv_heads, group)
        return self._attend_small_gathered(layer, q5, k, v, conc,
                                           dense_mask, sparse_mask,
                                           thresholds)

    def _attend_small_gathered(self, layer: int, q5: np.ndarray,
                               k: np.ndarray, v: np.ndarray,
                               conc: Optional[np.ndarray],
                               dense_mask: np.ndarray,
                               sparse_mask: np.ndarray,
                               thresholds: Optional[np.ndarray]
                               ) -> np.ndarray:
        """Selection, softmax, and output over gathered columns only.

        Shared tail of the small-block fast path and the session-batched
        decode path (:meth:`forward_cached_batch` calls it per session with
        the batched kernel's concordance slice), which keeps solo and
        batched decode bit-identical by construction.

        Scores are computed per KV head over the union of dense columns
        and that head's filter-passing columns — never the full context.
        Selections are exactly those of full-width scoring: gathering
        preserves ascending column order, so :func:`top_k_mask`'s
        lower-index tie-break picks the same keys, and the softmax over
        the gathered set equals the masked full-width softmax (dropped
        columns contribute exactly-zero terms).

        Args:
            q5: ``(n_kv_heads, group, n_new, head_dim)`` queries.
            conc: ``(n_kv_heads, group, n_new, n_ctx)`` concordance counts,
                or ``None`` when the context has no sparse region.
            thresholds: broadcastable threshold stack (required with
                ``conc``).

        Returns:
            ``(n_q_heads, n_new, head_dim)`` attention output.
        """
        cfg = self.config
        n_kv_heads, group, n_new, head_dim = q5.shape
        n_ctx = k.shape[1]
        n_q_heads = n_kv_heads * group
        scale = 1.0 / np.sqrt(head_dim)
        pass_full = sparse_mask & (conc >= thresholds) \
            if conc is not None else None
        dense_any = dense_mask.any(axis=0)
        candidates = int(sparse_mask.sum()) if pass_full is not None else 0
        per_q = self._stats_per_q(n_q_heads, n_kv_heads)
        passed_total = 0
        selected_total = 0
        out = np.empty((n_q_heads, n_new, head_dim))
        for kv_head in range(n_kv_heads):
            if pass_full is not None:
                cols = np.nonzero(
                    dense_any | pass_full[kv_head].any(axis=(0, 1)))[0]
            else:
                cols = np.nonzero(dense_any)[0]
            kg = k[kv_head, cols]
            vg = v[kv_head, cols]
            dense_g = dense_mask[:, cols]
            for g in range(group):
                h = kv_head * group + g
                scores = (q5[kv_head, g] @ kg.T) * scale
                if pass_full is not None:
                    pass_g = pass_full[kv_head, g][:, cols]
                    sparse_scores = np.where(pass_g, scores, -np.inf)
                    selected = top_k_mask(sparse_scores, cfg.top_k)
                    attend = dense_g | selected
                    n_passed = int(pass_g.sum())
                    n_selected = int(selected.sum())
                    passed_total += n_passed
                    selected_total += n_selected
                    if self.stats is not None:
                        self.stats.update(
                            layer, h if per_q else kv_head,
                            candidates=candidates, passed=n_passed,
                            retrieved=n_selected, queries=n_new)
                    if self.selection_capture is not None:
                        sel_full = np.zeros((n_new, n_ctx), dtype=bool)
                        sel_full[:, cols] = selected
                        self.selection_capture[(layer, h)] = sel_full
                else:
                    attend = dense_g
                final = np.where(attend, scores, -np.inf)
                probs = softmax(final, axis=-1)
                out[h] = probs @ vg
        metrics = self.obs.metrics
        if metrics.enabled:
            _record_split(metrics, n_q_heads * n_new,
                          int(dense_mask.sum()) * n_q_heads,
                          candidates * n_q_heads if pass_full is not None
                          else 0,
                          passed_total, selected_total)
        return out

    def _forward_block(self, layer: int, q: np.ndarray, k: np.ndarray,
                       v: np.ndarray,
                       key_signs: Optional[np.ndarray]) -> np.ndarray:
        """Survivor-compacted block prefill: the one multi-query kernel.

        Filter -> score -> compact -> select -> attend per KV head and key
        tile, as laid out (with the exact-selection argument) in the module
        docstring.  ``key_signs`` is the optional packed sign store as in
        :meth:`_forward_fast`; without it each tile's signs are packed from
        the keys.  Selections equal :meth:`_forward_reference`'s exactly and
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
        stats_per_q = self._stats_per_q(n_q_heads, n_kv_heads)

        dense_cols, dense_mask = _dense_region(n_ctx, n_new, cfg.n_sink,
                                               cfg.window)
        n_dense = len(dense_cols)

        # Sparse span: row p may select columns in [n_sink, p - window].
        # Same count the reference gets from sparse_mask.sum().
        span_lo, span_hi = cfg.n_sink, n_ctx - cfg.window
        candidates = int(np.clip(q_positions - cfg.window - cfg.n_sink + 1,
                                 0, None).sum())
        any_sparse = candidates > 0

        if any_sparse:
            q5 = q.reshape(n_kv_heads, group, n_new, head_dim)
            if cfg.use_itq:
                rot_bank = self.rotations.matrices[layer]  # (Hkv, d, d)
                q5 = np.matmul(q5, rot_bank[:, None])
            q_signs = pack_signs(q5)                  # (Hkv, G, n_new, nb)
            tile = cfg.prefill_tile or span_hi - span_lo
            # Columns at or below the first query's limit are candidates
            # for every row; only the tail beyond it needs the causal cut.
            tail_lo = max(span_lo, int(q_positions[0]) - cfg.window + 1)
            causal_tail = (np.arange(tail_lo, span_hi)[None, :]
                           <= (q_positions - cfg.window)[:, None])

        metrics = self.obs.metrics
        passed_total = selected_total = 0
        out = np.empty_like(q)
        for kv_head in range(n_kv_heads):
            keys = k[kv_head]
            values = v[kv_head]
            if any_sparse:
                # Per-row pools of the best (score, column) pairs so far,
                # left-aligned in ascending column order; column n_ctx
                # pads a row (score -inf, sorts after every real column).
                pool_s = [np.empty((n_new, 0))] * group
                pool_c = [np.empty((n_new, 0), dtype=np.int64)] * group
                passed = [0] * group
                limits = [int(np.floor(head_dim - cfg.threshold_for(
                    layer, kv_head, kv_head * group + g)))
                    for g in range(group)]
                for t0 in range(span_lo, span_hi, tile):
                    t1 = min(t0 + tile, span_hi)
                    if key_signs is not None:
                        sk_t = key_signs[kv_head, t0:t1]
                    else:
                        sk_t = pack_signs(keys[t0:t1] @ rot_bank[kv_head]
                                          if cfg.use_itq else keys[t0:t1])
                    mism = mismatches_packed(q_signs[kv_head], sk_t[None])
                    for g in range(group):
                        pass_t = mism[g] <= limits[g]         # (n_new, T)
                        if t1 > tail_lo:
                            pass_t[:, max(tail_lo - t0, 0):] &= causal_tail[
                                :, max(t0 - tail_lo, 0): t1 - tail_lo]
                        src, dest, shape = _left_align(pass_t)
                        passed[g] += len(src)
                        if not len(src) or not top_k:
                            continue          # tile contributes nothing
                        h = kv_head * group + g
                        # Scale survivors only: the same float op per
                        # entry as the reference's full-width scaling.
                        scores = (q[h] @ keys[t0:t1].T).ravel()[src] * scale
                        merged_s = np.concatenate(
                            [pool_s[g], _padded(scores, dest, shape,
                                                neg_inf)], axis=1)
                        merged_c = np.concatenate(
                            [pool_c[g], _padded(src % (t1 - t0) + t0, dest,
                                                shape, n_ctx)], axis=1)
                        if merged_s.shape[1] > top_k:
                            keep = top_k_mask(merged_s, top_k)
                            src, dest, shape = _left_align(keep)
                            merged_s = _padded(merged_s.ravel()[src], dest,
                                               shape, neg_inf)
                            merged_c = _padded(merged_c.ravel()[src], dest,
                                               shape, n_ctx)
                        pool_s[g], pool_c[g] = merged_s, merged_c
                passed_total += sum(passed)

            kg = keys[dense_cols]
            vg = values[dense_cols]
            for g in range(group):
                h = kv_head * group + g
                combined = np.where(dense_mask, (q[h] @ kg.T) * scale,
                                    neg_inf)
                if any_sparse:
                    sel_cols = pool_c[g]
                    valid = sel_cols < n_ctx
                    retrieved = int(np.count_nonzero(valid))
                    selected_total += retrieved
                    if self.stats is not None:
                        self.stats.update(
                            layer, h if stats_per_q else kv_head,
                            candidates=candidates, passed=passed[g],
                            retrieved=retrieved, queries=n_new)
                    if self.selection_capture is not None:
                        sel_mask = np.zeros((n_new, n_ctx), dtype=bool)
                        rows, slots = np.nonzero(valid)
                        sel_mask[rows, sel_cols[rows, slots]] = True
                        self.selection_capture[(layer, h)] = sel_mask
                    combined = np.concatenate([combined, pool_s[g]], axis=1)
                probs = softmax(combined, axis=-1)
                out_h = probs[:, :n_dense] @ vg
                if combined.shape[1] > n_dense:
                    # Pad columns clip to the last key; their weight is 0.
                    v_sel = values.take(sel_cols, axis=0, mode="clip")
                    out_h += np.einsum("nk,nkd->nd", probs[:, n_dense:],
                                       v_sel)
                out[h] = out_h
        if metrics.enabled:
            _record_split(metrics, n_q_heads * n_new,
                          int(dense_mask.sum()) * n_q_heads,
                          candidates * n_q_heads, passed_total,
                          selected_total)
        return out

    def _threshold_stack(self, layer: int, n_kv_heads: int,
                         group: int) -> np.ndarray:
        """Per-head thresholds broadcastable over ``(Hkv, G, n_q, n_ctx)``.

        Memoized per (layer, head geometry); the memo is dropped whenever
        ``config.thresholds`` is replaced with a different object.
        """
        cfg = self.config
        if self._threshold_cache_key != id(cfg.thresholds):
            self._threshold_cache.clear()
            self._threshold_cache_key = id(cfg.thresholds)
        key = (layer, n_kv_heads, group)
        cached = self._threshold_cache.get(key)
        if cached is not None:
            return cached
        th = np.empty((n_kv_heads, group, 1, 1))
        for kv_head in range(n_kv_heads):
            for g in range(group):
                th[kv_head, g] = cfg.threshold_for(
                    layer, kv_head, kv_head * group + g)
        self._threshold_cache[key] = th
        return th

    # -- reference path -------------------------------------------------------

    def _forward_reference(self, layer: int, q: np.ndarray, k: np.ndarray,
                           v: np.ndarray) -> np.ndarray:
        cfg = self.config
        n_q_heads, n_new, head_dim = q.shape
        n_kv_heads, n_ctx, _ = k.shape
        group = n_q_heads // n_kv_heads
        scale = 1.0 / np.sqrt(head_dim)
        q_positions = np.arange(n_ctx - n_new, n_ctx)
        dense_mask, sparse_mask = _region_masks(
            q_positions, n_ctx, cfg.n_sink, cfg.window)
        any_sparse = bool(sparse_mask.any())
        neg_inf = -np.inf
        stats_per_q = self._stats_per_q(n_q_heads, n_kv_heads)
        candidates = int(sparse_mask.sum()) if any_sparse else 0
        metrics = self.obs.metrics
        passed_total = selected_total = 0

        out = np.empty_like(q)
        for kv_head in range(n_kv_heads):
            keys = k[kv_head]
            values = v[kv_head]
            if cfg.use_itq:
                rot = self.rotations.get(layer, kv_head)
                keys_f = keys @ rot
            else:
                keys_f = keys
            for g in range(group):
                h = kv_head * group + g
                threshold = cfg.threshold_for(layer, kv_head, h)
                scores = (q[h] @ keys.T) * scale
                if any_sparse:
                    q_f = q[h] @ rot if cfg.use_itq else q[h]
                    conc = concordance(q_f, keys_f)
                    pass_mask = sparse_mask & (conc >= threshold)
                    sparse_scores = np.where(pass_mask, scores, neg_inf)
                    selected = top_k_mask(sparse_scores, cfg.top_k)
                    attend = dense_mask | selected
                    if metrics.enabled:
                        passed_total += int(pass_mask.sum())
                        selected_total += int(selected.sum())
                    if self.stats is not None:
                        self.stats.update(
                            layer, h if stats_per_q else kv_head,
                            candidates=candidates,
                            passed=int(pass_mask.sum()),
                            retrieved=int(selected.sum()),
                            queries=n_new,
                        )
                    if self.selection_capture is not None:
                        self.selection_capture[(layer, h)] = selected.copy()
                else:
                    attend = dense_mask
                scores[~attend] = neg_inf
                out[h] = softmax(scores, axis=-1) @ values
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


def make_backend(config: LongSightConfig,
                 rotations: Optional[ItqRotations] = None,
                 stats: Optional[FilterStats] = None,
                 use_fast_path: bool = True,
                 obs: Optional[Obs] = None):
    """Build the attention backend selected by ``config.prefilter``.

    The two pre-filter families share the duck-typed
    ``prepare_cache`` / ``forward_cached`` / ``forward`` /
    ``dense_fallback`` hooks, so callers can swap them by config alone:

    - ``"scf"``: :class:`LongSightAttention` — sign-concordance filtering
      plus exact top-k (the paper's mechanism).
    - ``"antidiag"``: :class:`~repro.core.antidiag.AntidiagonalAttention`
      — XAttention-style antidiagonal block scoring (``rotations`` and
      ``use_fast_path`` do not apply and are ignored).
    """
    if config.prefilter == "antidiag":
        # Deferred import: repro.core.antidiag imports this module.
        from repro.core.antidiag import AntidiagonalAttention
        return AntidiagonalAttention(config, stats=stats, obs=obs)
    return LongSightAttention(config, rotations=rotations, stats=stats,
                              use_fast_path=use_fast_path, obs=obs)
