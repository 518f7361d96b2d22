"""Per-offload latency composition (Section 8.2, Figure 8).

An offload for one (user, layer) proceeds, per KV head / package:

1. address generation in the NMA memory controller (1,024 ns),
2. PFU filtering epochs (``d x 1.25 ns`` each; all spanned banks parallel),
3. bitmap read-back (120.4 ns each, channels parallel),
4. survivor key streaming + dot products (bandwidth/compute roofline),
5. top-k drain,
6. value (and score) transfer to the GPU over CXL.

Packages holding different heads (or chained slices of one head) proceed in
parallel on their own NMAs; the CXL link is shared, so value transfer is
charged once over the aggregate response size.
"""

from __future__ import annotations

import dataclasses
import math
from typing import Sequence

from repro.drex.cxl import LINK
from repro.drex.descriptors import request_bytes, response_entry_bytes
from repro.drex.dram import LpddrTimings, LPDDR5X
from repro.drex.geometry import DrexGeometry, DREX_DEFAULT
from repro.drex.nma import NearMemoryAccelerator


@dataclasses.dataclass
class LatencyBreakdown:
    """Nanosecond components of one sparse-attention offload."""

    address_gen_ns: float = 0.0
    filter_ns: float = 0.0
    bitmap_read_ns: float = 0.0
    score_ns: float = 0.0
    rank_ns: float = 0.0
    value_read_ns: float = 0.0
    queue_ns: float = 0.0

    @property
    def compute_ns(self) -> float:
        """Device-side portion (everything but the CXL value read + queueing)."""
        return (self.address_gen_ns + self.filter_ns + self.bitmap_read_ns
                + self.score_ns + self.rank_ns)

    @property
    def total_ns(self) -> float:
        return self.compute_ns + self.value_read_ns + self.queue_ns

    def components(self) -> dict:
        return {
            "address_gen": self.address_gen_ns,
            "filter": self.filter_ns,
            "bitmap_read": self.bitmap_read_ns,
            "score": self.score_ns,
            "rank": self.rank_ns,
            "value_read": self.value_read_ns,
            "queue": self.queue_ns,
        }

    def __add__(self, other: "LatencyBreakdown") -> "LatencyBreakdown":
        return LatencyBreakdown(*[
            getattr(self, f.name) + getattr(other, f.name)
            for f in dataclasses.fields(self)
        ])

    @staticmethod
    def pmax(items: Sequence["LatencyBreakdown"]) -> "LatencyBreakdown":
        """Component-wise max — parallel composition across packages."""
        return LatencyBreakdown(*[
            max(getattr(item, f.name) for item in items)
            for f in dataclasses.fields(LatencyBreakdown)
        ])


@dataclasses.dataclass
class OffloadCost:
    """Inputs describing one per-package unit of offload work."""

    n_keys: int          # keys in this package's slice segment
    n_survivors: int     # keys passing SCF (actual or expected)
    n_retrieved: int     # min(k, survivors), per query head
    n_query_heads: int   # query heads served by this request (GQA group)
    head_dim: int
    top_k: int
    dtype_bytes: int = 2


class DrexTimingModel:
    """Latency calculator shared by the functional device and the perf
    model; both CXL transfers cross :data:`repro.drex.cxl.LINK`."""

    def __init__(self, geometry: DrexGeometry = DREX_DEFAULT,
                 timings: LpddrTimings = LPDDR5X) -> None:
        self.geometry = geometry
        self.timings = timings
        self.nma = NearMemoryAccelerator(geometry, timings)

    def epochs(self, n_keys: int) -> int:
        """Filtering epochs: blocks beyond one per PFU wrap into new epochs."""
        blocks = math.ceil(max(1, n_keys) / self.geometry.pfu_keys_per_block)
        return math.ceil(blocks / self.geometry.banks_per_package)

    def package_latency(self, cost: OffloadCost) -> LatencyBreakdown:
        """Device-side latency of one package's share of an offload."""
        g = self.geometry
        blocks = math.ceil(max(1, cost.n_keys) / g.pfu_keys_per_block)
        epochs = self.epochs(cost.n_keys)
        filter_ns = epochs * self.timings.bitmap_generation_ns(cost.head_dim)
        bitmap_ns = self.nma.bitmap_read_latency_ns(blocks, epochs=1)
        score_ns = self.nma.scoring_latency_ns(
            cost.n_survivors, cost.head_dim, cost.n_query_heads,
            cost.dtype_bytes)
        rank_ns = self.nma.ranking_latency_ns(cost.top_k)
        return LatencyBreakdown(
            address_gen_ns=self.timings.address_gen_ns,
            filter_ns=filter_ns,
            bitmap_read_ns=bitmap_ns,
            score_ns=score_ns,
            rank_ns=rank_ns,
        )

    def value_read_ns(self, n_retrieved_total: int, head_dim: int,
                      dtype_bytes: int = 2) -> float:
        """CXL transfer of the response: values + scores + IDs."""
        return LINK.transfer_ns(
            n_retrieved_total * response_entry_bytes(head_dim, dtype_bytes))

    def request_submit_ns(self, n_query_heads: int, head_dim: int,
                          dtype_bytes: int = 2) -> float:
        """GPU -> DCC descriptor write over CXL."""
        return LINK.transfer_ns(
            request_bytes(n_query_heads * head_dim, dtype_bytes))

    def offload_latency(self, per_package_costs: Sequence[OffloadCost],
                        head_dim: int, dtype_bytes: int = 2) -> LatencyBreakdown:
        """Full offload: parallel packages, shared CXL for the response."""
        if not per_package_costs:
            return LatencyBreakdown()
        device = LatencyBreakdown.pmax(
            [self.package_latency(c) for c in per_package_costs])
        retrieved = sum(c.n_retrieved * c.n_query_heads
                        for c in per_package_costs)
        device.value_read_ns = self.value_read_ns(retrieved, head_dim,
                                                  dtype_bytes)
        return device
