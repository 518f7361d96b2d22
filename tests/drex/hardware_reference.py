"""The DReX hardware units as functional models: the reference the
software kernel's selection and the device's prices are checked against.

:func:`filter_block` is one PIM Filter Unit epoch (a Key Sign Object of up
to 128 keys against up to 16 query sign registers), :func:`score_and_rank`
one Near-Memory Accelerator pass (exhaustive scoring of a group's
survivors, per-query top-k under each query's own bitmap), and
:func:`offload` chains them over one KV head's stored keys as a device
would: filter block by block, fetch the group's survivor union once, rank.
The timing of both units lives in ``repro.drex.pfu`` / ``repro.drex.nma``.
"""

from __future__ import annotations

import dataclasses
from typing import List, Optional

import numpy as np

from repro.core.scf import concordance_packed, pack_signs
from repro.core.topk import top_k_indices
from repro.drex.geometry import DREX_DEFAULT, DrexGeometry


@dataclasses.dataclass
class NmaScoreResult:
    """Per-query top-k produced by one NMA pass."""

    indices: List[np.ndarray]   # survivor-set indices per query
    scores: List[np.ndarray]


def filter_block(key_signs_packed: np.ndarray,
                 query_signs_packed: np.ndarray, head_dim: int,
                 threshold: float,
                 geometry: DrexGeometry = DREX_DEFAULT) -> np.ndarray:
    """One Key Sign Object ``(<= 128, n_bytes)`` against a query group
    ``(<= 16, n_bytes)``: the ``(n_queries, n_keys)`` bitmap of keys whose
    sign concordance reaches ``threshold``."""
    if key_signs_packed.shape[0] > geometry.pfu_keys_per_block:
        raise ValueError("PFU blocks hold at most 128 keys")
    if query_signs_packed.shape[0] > geometry.pfu_max_queries:
        raise ValueError("PFU supports attention groups of <= 16 queries")
    matches = concordance_packed(query_signs_packed, key_signs_packed,
                                 head_dim)
    return matches >= threshold


def score_and_rank(queries: np.ndarray, survivor_keys: np.ndarray, k: int,
                   valid_mask: Optional[np.ndarray] = None,
                   geometry: DrexGeometry = DREX_DEFAULT) -> NmaScoreResult:
    """Full-precision scores of the survivors ``(n_s, D)`` for a query
    group ``(G, D)``, then each query's top-``k`` (clamped to the hardware
    cap) among the keys its own bitmap row of ``valid_mask`` passed."""
    k = min(k, geometry.max_top_k)
    if survivor_keys.size == 0:
        empty = [np.empty(0, dtype=np.int64) for _ in range(len(queries))]
        return NmaScoreResult(empty, [np.empty(0) for _ in queries])
    all_scores = survivor_keys @ queries.T            # (n_s, G)
    indices, scores = [], []
    for g in range(len(queries)):
        col = all_scores[:, g]
        if valid_mask is not None:
            col = np.where(valid_mask[g], col, -np.inf)
        idx = top_k_indices(col, k)
        indices.append(idx)
        scores.append(all_scores[idx, g])
    return NmaScoreResult(indices, scores)


def offload(queries: np.ndarray, keys: np.ndarray, threshold: float,
            top_k: int, rotation: Optional[np.ndarray] = None,
            geometry: DrexGeometry = DREX_DEFAULT):
    """One KV head's offload for its query group ``(G, D)`` over its
    stored ``keys (n, D)``: PFU filtering per 128-key block, then one NMA
    pass over the group's survivor union.  Returns ``(indices, survive)``:
    each query's selected key positions (score order) and the ``(G, n)``
    filter bitmap."""
    k_rot = keys if rotation is None else keys @ rotation
    q_rot = queries if rotation is None else queries @ rotation
    q_packed = pack_signs(q_rot)
    k_packed = pack_signs(k_rot)
    block = geometry.pfu_keys_per_block
    survive = np.zeros((len(queries), len(keys)), dtype=bool)
    for start in range(0, len(keys), block):
        survive[:, start:start + block] = filter_block(
            k_packed[start:start + block], q_packed, keys.shape[1],
            threshold, geometry)
    union = np.flatnonzero(survive.any(axis=0))
    scored = score_and_rank(queries, keys[union], top_k,
                            valid_mask=survive[:, union], geometry=geometry)
    return [union[idx] for idx in scored.indices], survive
