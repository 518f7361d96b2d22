"""Reference hybrid attention: the correctness oracle of the block kernel.

:class:`ReferenceAttention` is the original per-head Python loop over
full-width ``(n_queries, n_ctx)`` masks — float sign concordance, one
``top_k_mask`` over the whole context, one masked softmax.  It is the
literal transcription of Figure 2b and costs O(context) float work per
query whatever the filter keeps, so nothing serves from it; the
equivalence suites (``tests/core/test_fast_equivalence.py``,
``tests/core/test_block_prefill.py``) pin
:class:`repro.core.hybrid.LongSightAttention` to its selections exactly and
to its outputs within float round-off, and ``repro.bench.micro`` times it
as the ``hybrid_reference`` column.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple, TYPE_CHECKING

import numpy as np

from repro.core.config import LongSightConfig
from repro.core.hybrid import _record_split, _stats_per_q
from repro.core.itq import ItqRotations
from repro.core.metrics import FilterStats
from repro.core.scf import concordance
from repro.core.topk import top_k_mask
from repro.llm.ops import softmax
from repro.obs import Obs, resolve_obs

if TYPE_CHECKING:
    from repro.llm.kv_cache import KVCache


def _region_masks(q_positions: np.ndarray, n_ctx: int, n_sink: int,
                  window: int) -> tuple[np.ndarray, np.ndarray]:
    """(dense, sparse-candidate) boolean masks, each ``(n_q, n_ctx)``.

    ``dense`` covers sinks plus the sliding window (clipped causally);
    ``sparse`` is the causal remainder — the region LongSight offloads.
    """
    j = np.arange(n_ctx)[None, :]
    p = np.asarray(q_positions)[:, None]
    causal = j <= p
    dense = ((j < n_sink) | (j > p - window)) & causal
    sparse = causal & ~dense
    return dense, sparse


class ReferenceAttention:
    """Per-head reference loop behind the attention-backend protocol.

    Same constructor arguments, ``stats`` accumulation and
    ``selection_capture`` debug dict as
    :class:`~repro.core.hybrid.LongSightAttention`.  It never consumes the
    packed sign store, so it has no ``prepare_cache`` hook.
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

    def forward_cached(self, layer: int, q: np.ndarray,
                       cache: "KVCache") -> np.ndarray:
        kv = cache.layers[layer]
        return self.forward(layer, q, kv.keys, kv.values)

    def forward(self, layer: int, q: np.ndarray, k: np.ndarray,
                v: np.ndarray) -> np.ndarray:
        cfg = self.config
        n_q_heads, n_new, head_dim = q.shape
        n_kv_heads, n_ctx, _ = k.shape
        group = n_q_heads // n_kv_heads
        scale = 1.0 / np.sqrt(head_dim)
        q_positions = np.arange(n_ctx - n_new, n_ctx)
        dense_mask, sparse_mask = _region_masks(
            q_positions, n_ctx, cfg.n_sink, cfg.window)
        # top_k = 0 retrieves nothing: no key is offloaded, none filtered.
        any_sparse = bool(cfg.top_k and sparse_mask.any())
        neg_inf = -np.inf
        stats_per_q = _stats_per_q(self.stats, n_q_heads, n_kv_heads)
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
