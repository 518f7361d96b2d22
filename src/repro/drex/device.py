"""The assembled DReX device: allocation, the DCC, offload cost and faults.

:class:`DrexDevice` keeps what the paper's hardware model needs and no
K/V or sign data: the allocator's slice chains (how many keys each
(user, layer, KV head) holds and in which packages), the DCC front-end,
the :class:`~repro.drex.timing.DrexTimingModel` and the fault injector.
The sparse-attention result is the software kernel's
(:class:`repro.core.hybrid.LongSightAttention`, driven by
:class:`repro.drex.backend.DrexOffloadBackend`).  A Request Descriptor
carries that kernel's stage-1 counts — each query's passes and, per KV
head, which stored keys any query of its group passed — and
:meth:`DrexDevice.execute` prices the offload from them, package by
package, into a :class:`repro.drex.timing.LatencyBreakdown` composed from
the paper's latency constants.

Key Sign Object integrity is checksum state: a corruption event records
which stored sign bits it flipped, a KV head's checksum fails while any
flip is outstanding, and a repack from the Key Objects clears them.

Kept unreached: ``DrexDevice.evict_user`` — eviction; ROADMAP item 22 (one
shared device per worker) makes it live.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, List, Optional, Tuple

import numpy as np

from repro.drex.allocator import DrexAllocator
from repro.drex.dcc import DrexCxlController
from repro.drex.descriptors import RequestDescriptor, ResponseDescriptor
from repro.drex.dram import LpddrTimings, LPDDR5X
from repro.drex.geometry import DrexGeometry, DREX_DEFAULT
from repro.drex.layout import ContextSlice
from repro.drex.timing import DrexTimingModel, OffloadCost
from repro.errors import OffloadTimeoutError, QueueFullError
from repro.faults import (CXL_DEGRADATION_FACTOR, KSO_BITS_FLIPPED,
                          NMA_STALL_NS, FaultInjector, FaultPlan)
from repro.obs import Obs, resolve_obs


#: Offload-latency histogram edges: log-spaced 100 ns .. 100 ms.
_LATENCY_NS_EDGES = tuple(float(e) for e in np.geomspace(1e2, 1e8, 61))


class DrexDevice:
    """A compute-enabled CXL memory expander serving sparse attention.

    Args:
        n_layers / n_kv_heads / n_q_heads / head_dim: model geometry the
            device is configured for (per-user databases are independent
            per layer and KV head, Section 4).
        geometry / timings: hardware configuration.
        plan: the :class:`FaultPlan` this device's :attr:`injector`
            asks on every :meth:`execute` (default: healthy).
    """

    def __init__(self, n_layers: int, n_kv_heads: int, n_q_heads: int,
                 head_dim: int, geometry: DrexGeometry = DREX_DEFAULT,
                 timings: LpddrTimings = LPDDR5X,
                 timing_model: Optional[DrexTimingModel] = None,
                 dtype_bytes: int = 2,
                 obs: Optional[Obs] = None,
                 plan: Optional[FaultPlan] = None) -> None:
        if n_q_heads % n_kv_heads != 0:
            raise ValueError("n_q_heads must be a multiple of n_kv_heads")
        self.n_layers = n_layers
        self.n_kv_heads = n_kv_heads
        self.n_q_heads = n_q_heads
        self.group = n_q_heads // n_kv_heads
        self.head_dim = head_dim
        self.geometry = geometry
        self.allocator = DrexAllocator(geometry, dtype_bytes)
        self.dcc = DrexCxlController()
        self.timing = timing_model or DrexTimingModel(geometry, timings)
        self.dtype_bytes = dtype_bytes
        self.obs = resolve_obs(obs)
        self.injector = FaultInjector(plan or FaultPlan.none())
        #: (uid, layer, kv_head) -> flat sign-bit positions (key index x
        #: head_dim + dimension) flipped since the last repack.
        self.flipped: Dict[Tuple[int, int, int], FrozenSet[int]] = {}

    # -- population ------------------------------------------------------------

    def register_user(self, uid: int) -> int:
        return self.dcc.register_user(uid)

    def evict_user(self, uid: int) -> None:
        self.dcc.unregister_user(uid)
        self.allocator.free_user(uid)
        for key in [k for k in self.flipped if k[0] == uid]:
            del self.flipped[key]

    def write_kv(self, uid: int, layer: int, kv_head: int,
                 n_keys: int) -> None:
        """Append ``n_keys`` Key/Value/Key Sign Objects to one (layer, KV
        head)'s slice chain (the GPU writes them as tokens leave its
        window)."""
        self.allocator.append_keys(uid, layer, kv_head, n_keys,
                                   self.head_dim)

    def _chain(self, uid: int, layer: int,
               kv_head: int) -> List[ContextSlice]:
        partition = self.allocator.partitions.get(uid)
        return [] if partition is None \
            else partition.slices.get((layer, kv_head), [])

    def context_length(self, uid: int, layer: int, kv_head: int) -> int:
        return sum(s.n_keys for s in self._chain(uid, layer, kv_head))

    # -- KSO integrity ---------------------------------------------------------

    def kso_intact(self, uid: int, layer: int, kv_head: int) -> bool:
        """Does the sign store's checksum match its write-time value?"""
        return (uid, layer, kv_head) not in self.flipped

    def corrupted_ksos(self, uid: int, layer: int) -> List[int]:
        """KV heads of ``(uid, layer)`` whose Key Sign Objects fail checksum."""
        return [kv_head for kv_head in range(self.n_kv_heads)
                if not self.kso_intact(uid, layer, kv_head)]

    def repack_kso(self, uid: int, layer: int, kv_head: int) -> None:
        """Repack sign codes from the stored full-precision keys.

        Key/Value Objects are the source of truth (sign corruption leaves
        them intact), so re-quantizing — what the GPU did when first
        writing the keys — restores every flipped bit.
        """
        self.flipped.pop((uid, layer, kv_head), None)

    def corrupt_kso(self, uid: int, layer: int, kv_head: int,
                    rng: np.random.Generator, n_bits: int = 1) -> int:
        """Flip random stored sign bits (fault-injection hook).

        Draws distinct flat positions over the stored keys x ``head_dim``
        bits (none for an empty store) and toggles them: a bit flipped
        twice is restored, as it would be in DRAM, and fails no checksum.
        Returns the number of bits flipped.
        """
        total = self.context_length(uid, layer, kv_head) * self.head_dim
        if total == 0:
            return 0
        # Distinct positions: an even number of flips at one position
        # would cancel out and evade the checksum.
        chosen = rng.choice(total, size=min(n_bits, total), replace=False)
        key = (uid, layer, kv_head)
        flips = self.flipped.pop(key, frozenset()) ^ frozenset(
            chosen.tolist())
        if flips:
            self.flipped[key] = flips
        return len(chosen)

    # -- offload execution ---------------------------------------------------------

    def execute(self, request: RequestDescriptor,
                site: Tuple[int, ...] = (0, 0, 0)) -> ResponseDescriptor:
        """Submit, price and read back one offload synchronously.

        Faults are decided at the attempt's ``site``: queue -> buffers ->
        corruption -> CXL timeout before the offload runs, then the
        latency faults after it.  KSO corruption persists
        in the sign store until repaired — like real DRAM disturbance —
        while an NMA stall or a degraded link distorts only the returned
        :class:`LatencyBreakdown`.
        """
        inj = self.injector
        if inj.fires("queue_full", site):
            raise QueueFullError(
                "injected: DCC request queue full (depth "
                f"{self.dcc.QUEUE_DEPTH})")
        if inj.fires("response_buffer", site):
            raise QueueFullError(
                "injected: all DCC response buffers exhausted")
        rng = inj.fires("kso_corruption", site)
        if rng is not None:
            self.corrupt_kso(request.uid, request.layer,
                             int(rng.integers(self.n_kv_heads)), rng,
                             n_bits=KSO_BITS_FLIPPED)
        if inj.fires("cxl_timeout", site):
            raise OffloadTimeoutError(
                "injected: CXL response timed out (stalled link or lost "
                "completion)")
        self.dcc.submit(request)
        popped = self.dcc.pop_next()
        self.dcc.complete(self._process(popped))
        response = self.dcc.read_response(request.uid)
        if inj.fires("nma_stall", site):
            response.latency.rank_ns += NMA_STALL_NS
        if inj.fires("cxl_degraded", site):
            response.latency.value_read_ns *= CXL_DEGRADATION_FACTOR
        return response

    def _process(self, request: RequestDescriptor) -> ResponseDescriptor:
        queries = request.queries
        n_q_heads, d = queries.shape[0], queries.shape[-1]
        n_tokens = queries.shape[1] if queries.ndim == 3 else 1
        if n_q_heads != self.n_q_heads or d != self.head_dim:
            raise ValueError("request query shape mismatch")
        if n_tokens * self.group > self.geometry.pfu_max_queries:
            raise ValueError("attention group exceeds PFU limit of 16 queries")
        costs: List[OffloadCost] = []
        for kv_head in range(self.n_kv_heads):
            costs += self._package_costs(request, kv_head)
        latency = self.timing.offload_latency(costs, self.head_dim,
                                              self.dtype_bytes)
        latency.queue_ns += self.timing.request_submit_ns(
            n_q_heads * n_tokens, self.head_dim, self.dtype_bytes)
        metrics = self.obs.metrics
        if metrics.enabled:
            # Per-stage modeled latency attribution: where an offload's
            # nanoseconds go (address gen / filter / bitmap / score / rank
            # / CXL value read / queueing), summed across offloads.
            metrics.counter("drex.offloads").inc()
            for stage, ns in latency.components().items():
                metrics.counter(f"drex.latency.{stage}_ns").inc(ns)
            metrics.histogram("drex.offload_total_ns",
                              edges=_LATENCY_NS_EDGES).observe(
                                  latency.total_ns)
        return ResponseDescriptor(
            uid=request.uid, layer=request.layer,
            n_entries=sum(c.n_retrieved * c.n_query_heads for c in costs),
            dtype_bytes=self.dtype_bytes, latency=latency)

    def _package_costs(self, request: RequestDescriptor,
                       kv_head: int) -> List[OffloadCost]:
        """One KV head's offload work, split by package along its slice
        chain: each slice filters its keys, scores its share of the
        group's survivors and returns its share of the retrieved keys."""
        chain = self._chain(request.uid, request.layer, kv_head)
        n_keys = sum(s.n_keys for s in chain)
        if n_keys == 0:
            return []
        if request.passed is None or request.survivors is None:
            raise ValueError("request carries no filter counts to price")
        survivors = np.asarray(request.survivors[kv_head])
        if survivors.shape != (n_keys,):
            raise ValueError(
                f"survivor bitmap covers {survivors.shape[0]} keys; "
                f"layer {request.layer} KV head {kv_head} holds {n_keys}")
        passed = np.asarray(request.passed[kv_head * self.group:
                                           (kv_head + 1) * self.group]
                            ).ravel()
        total_survivors = max(1, int(survivors.sum()))
        retrieved = min(request.top_k, float(passed.mean()))
        costs, offset = [], 0
        for s in chain:
            seg = s.n_keys
            if seg == 0:
                continue
            seg_survivors = int(survivors[offset:offset + seg].sum())
            costs.append(OffloadCost(
                n_keys=seg, n_survivors=seg_survivors,
                n_retrieved=int(round(
                    retrieved * seg_survivors / total_survivors)),
                n_query_heads=len(passed), head_dim=self.head_dim,
                top_k=request.top_k, dtype_bytes=self.dtype_bytes))
            offset += seg
        return costs
