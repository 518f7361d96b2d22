"""The LongSight algorithm: hybrid dense–sparse attention (Section 5).

The pipeline has three stages, mirroring retrieval from a vector database:

1. **Filtering** — :mod:`repro.core.scf` excludes prior tokens' keys whose
   sign bits disagree with the query's beyond a per-KV-head threshold
   (Sign-Concordance Filtering, the operation DReX's in-DRAM PFUs execute).
2. **Scoring** — full-precision dot products for surviving keys (executed
   by DReX's near-memory accelerators).
3. **Ranking** — top-k selection of attention scores
   (:mod:`repro.core.topk`).

:class:`repro.core.hybrid.LongSightAttention` combines the sparse pipeline
with a dense sliding window and attention-sink tokens, and plugs into the
transformer substrate as an attention backend — the software analogue of the
paper's ``LongSightAttn`` PyTorch module.  :mod:`repro.core.itq` supplies
the learned rotations that fix the sign-bit imbalance of clustered Llama
keys, and :mod:`repro.core.tuning` implements the paper's threshold tuning
loop (Section 8.1.3).
"""

from repro.core.config import LongSightConfig
from repro.core.scf import (sign_bits, concordance, scf_filter, pack_signs,
                            concordance_packed, concordance_packed_many)
from repro.core.itq import learn_itq_rotation, ItqRotations, fit_itq
from repro.core.topk import top_k_indices
from repro.core.sparse import sparse_retrieve, SparseResult
from repro.core.hybrid import LongSightAttention, SlidingWindowAttention
from repro.core.metrics import FilterStats
from repro.core.tuning import tune_thresholds

__all__ = [
    "LongSightConfig",
    "sign_bits",
    "concordance",
    "scf_filter",
    "pack_signs",
    "concordance_packed",
    "concordance_packed_many",
    "learn_itq_rotation",
    "ItqRotations",
    "fit_itq",
    "top_k_indices",
    "sparse_retrieve",
    "SparseResult",
    "LongSightAttention",
    "SlidingWindowAttention",
    "FilterStats",
    "tune_thresholds",
]
