"""Deterministic top-k selection over attention scores (Section 5.1).

This is the "ranking" stage of the sparse pipeline; in hardware it runs on
the NMA's top-k sorting unit (maximum supported k is 1,024).
"""

from __future__ import annotations

import numpy as np


def top_k_indices(scores: np.ndarray, k: int) -> np.ndarray:
    """Indices of the ``k`` largest entries of a 1-D score vector.

    Deterministic: ties broken by lower index first.  Entries equal to
    ``-inf`` are treated as absent (never selected), so callers can mask
    filtered-out candidates with ``-inf``.

    Returns:
        Sorted-by-descending-score index array of length
        ``min(k, #finite entries)``.
    """
    scores = np.asarray(scores)
    if scores.ndim != 1:
        raise ValueError("top_k_indices expects a 1-D score vector")
    finite = np.isfinite(scores)
    n_valid = int(finite.sum())
    take = min(k, n_valid)
    if take == 0:
        return np.empty(0, dtype=np.int64)
    # argsort on (-score, index) gives a deterministic total order.
    order = np.lexsort((np.arange(len(scores)), -scores))
    order = order[finite[order]]
    return order[:take].astype(np.int64)


def top_k_mask(scores: np.ndarray, k: int) -> np.ndarray:
    """Row-wise top-k as a boolean mask over the last axis.

    ``scores`` is ``(..., n_candidates)`` with ``-inf`` marking
    non-candidates; the result marks at most ``k`` True entries per row.
    Any number of leading axes is supported, so whole ``(n_heads, n_q,
    n_ctx)`` stacks select in one call — the attention kernel and blockwise
    perplexity evaluation both rely on this.  Ties at the k-th boundary are
    broken by lower index, matching :func:`top_k_indices`, and each row's
    result is identical to the 2-D form regardless of batching.
    """
    scores = np.asarray(scores)
    n_c = scores.shape[-1]
    mask = np.zeros(scores.shape, dtype=bool)
    if k <= 0 or n_c == 0:
        return mask
    finite = np.isfinite(scores)
    if k >= n_c:
        return finite
    # Exact O(n) selection: take everything strictly above the k-th value,
    # then fill remaining slots with boundary-tied entries in index order.
    # One negated copy, partitioned in place.  (Partitioning ``scores``
    # itself at ``n_c - k`` needs no copy but is ~10x slower on rows that
    # are mostly -inf, i.e. every filtered decode row.)
    neg = np.negative(scores)
    neg.partition(k - 1, axis=-1)
    kth = -neg[..., k - 1 : k]
    above = scores > kth
    fill = (scores == kth).reshape(-1, n_c)
    slots = k - above.reshape(-1, n_c).sum(axis=-1, keepdims=True)
    # Only rows whose boundary value occurs more often than there are free
    # slots need the index-ordered fill; elsewhere every tied entry is in
    # (a -inf boundary fills with -inf entries, which ``finite`` drops).
    crowded = np.flatnonzero((fill.sum(axis=-1, keepdims=True) > slots)
                             & (kth.reshape(-1, 1) > -np.inf))
    if len(crowded):
        tied = fill[crowded]
        fill[crowded] = tied & (np.cumsum(tied, axis=-1) <= slots[crowded])
    return (above | fill.reshape(scores.shape)) & finite
