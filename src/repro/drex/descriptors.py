"""Memory object formats and MMIO descriptors (Section 7.3.1).

LongSight allocates DReX memory at the granularity of:

- **Key Sign Object** — one-bit sign-quantized keys for one (user, layer,
  KV head); bank-local, laid out so each 128-bit column holds one dimension
  across 128 keys (the PFU access pattern).
- **Key Object** — full-precision keys, interleaved across all eight
  channels of a package.
- **Value Object** — full-precision values per layer and head.
- **Request Descriptor** — UID, layer, and the query vectors; written by
  the GPU into the DCC's MMIO request queue.
- **Response Descriptor** — up to ``1,024 x H`` top keys/values plus their
  scores; populated into a per-user response buffer.

The three memory objects are sized where they are placed, by
:func:`repro.drex.layout.rows_per_group`.  The two descriptors know their
byte footprint so the CXL/bandwidth models can charge transfers exactly;
their sizes are :func:`request_bytes` and :func:`response_entry_bytes`,
which the analytic models charge too.
"""

from __future__ import annotations

import dataclasses
from typing import Optional, Sequence

import numpy as np


def request_bytes(n_values: int, dtype_bytes: int = 2) -> int:
    """A Request Descriptor's size: a 16-byte header (UID, layer, k,
    flags) and ``n_values`` query elements."""
    return 16 + n_values * dtype_bytes


def response_entry_bytes(head_dim: int, dtype_bytes: int = 2) -> int:
    """One Response Descriptor entry: a value, its score and its key ID."""
    return head_dim * dtype_bytes + dtype_bytes + 4


@dataclasses.dataclass
class RequestDescriptor:
    """Sparse-attention offload request (one user, one layer).

    ``queries`` carries the post-RoPE query vectors for every query head:
    shape ``(n_q_heads, head_dim)`` for single-token decode, or
    ``(n_q_heads, n_tokens, head_dim)`` for grouped decode (the PFU supports
    groups of up to 16 queries per KV head).  The selection itself is the
    software kernel's; the request carries its stage-1 counts, which the
    device prices: ``passed``, the keys each query passed (``(n_q_heads,
    ...)``, one per query), and ``survivors``, per KV head a bitmap over
    its stored keys of those any query of its group passed; ``position``
    (the first query's) keys its fault sites.
    """

    uid: int
    layer: int
    queries: np.ndarray
    position: int = 0
    top_k: int = 1024
    dtype_bytes: int = 2
    passed: Optional[np.ndarray] = None
    survivors: Optional[Sequence[np.ndarray]] = None

    @property
    def n_bytes(self) -> int:
        return request_bytes(self.queries.size, self.dtype_bytes)


@dataclasses.dataclass
class ResponseDescriptor:
    """Completed offload: ``n_entries`` top-k (value, score, id) entries
    across the query heads (Section 7.3.1) and the modelled latency."""

    uid: int
    layer: int
    n_entries: int = 0
    dtype_bytes: int = 2
    latency: Optional[object] = None  # LatencyBreakdown, attached by the device

    def n_bytes(self, head_dim: int) -> int:
        """Bytes the GPU must pull over CXL: scores + values + ids."""
        return 16 + self.n_entries * response_entry_bytes(head_dim,
                                                          self.dtype_bytes)
