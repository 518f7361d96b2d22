"""The reference sparse retrieval pipeline: filter -> score -> rank.

:func:`sparse_retrieve` is the clean per-request form of what a DReX offload
computes for one (user, layer, KV head): given query vector(s) and that
head's offloaded key/value history, return the top-k keys by dot-product
score.  The attention kernel (:mod:`repro.core.hybrid`) and the DReX
hardware units' functional reference (``tests/drex/hardware_reference.py``)
are property-tested to select exactly this result.
"""

from __future__ import annotations

import dataclasses
from typing import Optional

import numpy as np

from repro.core.scf import scf_filter
from repro.core.topk import top_k_indices


@dataclasses.dataclass
class SparseResult:
    """Outcome of one sparse retrieval for one query vector.

    Attributes:
        indices: positions (into the offloaded region) of the selected keys,
            sorted by descending score.
        scores: raw (unscaled) dot-product scores of those keys.
        n_candidates: size of the offloaded region examined.
        n_passed: keys surviving the sign-concordance filter.
    """

    indices: np.ndarray
    scores: np.ndarray
    n_candidates: int
    n_passed: int

    @property
    def n_retrieved(self) -> int:
        return len(self.indices)


def sparse_retrieve(query: np.ndarray, keys: np.ndarray, threshold: float,
                    k: int, rotation: Optional[np.ndarray] = None) -> SparseResult:
    """Filter, score and rank one query against a key set.

    Args:
        query: ``(D,)`` post-RoPE query vector.
        keys: ``(N, D)`` post-RoPE keys of the offloaded region.
        threshold: SCF threshold for this KV head.
        k: top-k size.
        rotation: optional ITQ rotation applied (to both sides) before sign
            extraction; scoring always uses the unrotated vectors, which is
            equivalent since the rotation is orthogonal.

    Returns:
        :class:`SparseResult`; ``indices`` is empty when nothing passes.
    """
    query = np.asarray(query, dtype=np.float64)
    keys = np.asarray(keys, dtype=np.float64)
    if query.ndim != 1 or keys.ndim != 2 or keys.shape[1] != query.shape[0]:
        raise ValueError("expected query (D,) and keys (N, D)")
    n = keys.shape[0]
    if n == 0:
        empty = np.empty(0)
        return SparseResult(empty.astype(np.int64), empty, 0, 0)

    if rotation is not None:
        q_f, k_f = query @ rotation, keys @ rotation
    else:
        q_f, k_f = query, keys
    passed = scf_filter(q_f[None, :], k_f, threshold)[0]
    n_passed = int(passed.sum())

    scores = keys @ query
    masked = np.where(passed, scores, -np.inf)
    idx = top_k_indices(masked, k)
    return SparseResult(indices=idx, scores=scores[idx],
                        n_candidates=n, n_passed=n_passed)
