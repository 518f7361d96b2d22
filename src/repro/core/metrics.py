"""Filter-ratio and sparsity accounting (Figure 3's y-axis).

The paper defines the *KV cache filter ratio* as "the ratio of the total
number of KV entries accessed during the dense attention baseline to the
number of Keys accessed after filtering and k Keys and Values retrieved
after Top-k selection", measured over the non-window (sparse) region.

Concretely, per query and per KV head over the ``N`` sparse-region tokens:

- dense baseline accesses: ``2 N``   (every key and every value),
- LongSight accesses: ``N_pass + 2 k_ret``  (keys scored after the sign
  filter, plus the full-precision keys and values returned for the top-k),

and ``filter_ratio = 2N / (N_pass + 2 k_ret)``.  Sparsity relates as
``1 - 1/filter_ratio`` (consistent with Section 5.4's "91.92% sparsity, a
filter ratio of 12.4x").
"""

from __future__ import annotations

import numpy as np


class FilterStats:
    """Accumulates per-(layer, KV head) sparse-access counters."""

    def __init__(self, n_layers: int, n_kv_heads: int) -> None:
        self.n_layers = n_layers
        self.n_kv_heads = n_kv_heads
        shape = (n_layers, n_kv_heads)
        self.candidates = np.zeros(shape, dtype=np.int64)
        self.passed = np.zeros(shape, dtype=np.int64)
        self.retrieved = np.zeros(shape, dtype=np.int64)
        self.queries = np.zeros(shape, dtype=np.int64)

    def update(self, layer: int, kv_head: int, candidates: int, passed: int,
               retrieved: int, queries: int = 1) -> None:
        """Record one (or a block of) sparse retrieval(s)."""
        if passed > candidates:
            raise ValueError("passed cannot exceed candidates")
        if retrieved > passed:
            raise ValueError("retrieved cannot exceed passed")
        self.candidates[layer, kv_head] += candidates
        self.passed[layer, kv_head] += passed
        self.retrieved[layer, kv_head] += retrieved
        self.queries[layer, kv_head] += queries

    # -- aggregates ------------------------------------------------------------

    @staticmethod
    def _ratio(candidates: np.ndarray, passed: np.ndarray,
               retrieved: np.ndarray) -> np.ndarray:
        dense = 2.0 * candidates
        sparse = passed + 2.0 * retrieved
        with np.errstate(divide="ignore", invalid="ignore"):
            ratio = np.where(sparse > 0, dense / np.maximum(sparse, 1e-12), 1.0)
        return np.where(candidates > 0, ratio, 1.0)

    @property
    def filter_ratio(self) -> float:
        """Overall non-window KV cache filter ratio (>= 1 means savings)."""
        return float(self._ratio(self.candidates.sum(), self.passed.sum(),
                                 self.retrieved.sum()))

    @property
    def per_head_filter_ratio(self) -> np.ndarray:
        """``(n_layers, n_kv_heads)`` filter ratios (1.0 where unused)."""
        return self._ratio(self.candidates, self.passed, self.retrieved)

    @property
    def pass_rate(self) -> float:
        """Fraction of sparse candidates surviving the sign filter."""
        total = self.candidates.sum()
        return float(self.passed.sum() / total) if total else 1.0

    @property
    def sparsity(self) -> float:
        """Fraction of non-window KV accesses avoided: ``1 - 1/filter_ratio``."""
        return 1.0 - 1.0 / self.filter_ratio
