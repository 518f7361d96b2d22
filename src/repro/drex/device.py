"""The assembled DReX device: functional sparse-attention offload + timing.

:class:`DrexDevice` wires together the allocator, the DCC front-end, the
per-bank PFU model and per-package NMA model.  Offloads compute *real*
results — the returned top-k is property-tested to equal the reference
pipeline (:func:`repro.core.sparse.sparse_retrieve`) — and every response
carries a :class:`repro.drex.timing.LatencyBreakdown` composed from the
paper's latency constants.
"""

from __future__ import annotations

import dataclasses
import zlib
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.core.itq import ItqRotations
from repro.core.metrics import FilterStats
from repro.core.scf import pack_signs, sign_bits
from repro.drex.allocator import DrexAllocator
from repro.drex.dcc import DrexCxlController
from repro.drex.descriptors import HeadResult, RequestDescriptor, ResponseDescriptor
from repro.drex.dram import LpddrTimings, LPDDR5X
from repro.drex.geometry import DrexGeometry, DREX_DEFAULT
from repro.drex.nma import NearMemoryAccelerator
from repro.drex.pfu import PimFilterUnit
from repro.drex.timing import DrexTimingModel, LatencyBreakdown, OffloadCost
from repro.errors import OffloadTimeoutError, QueueFullError
from repro.obs import Obs, resolve_obs
from repro.system.faults import FaultInjector, FaultPlan


#: Offload-latency histogram edges: log-spaced 100 ns .. 100 ms.
_LATENCY_NS_EDGES = tuple(float(e) for e in np.geomspace(1e2, 1e8, 61))


def _sign_crc(blocks: List[np.ndarray]) -> int:
    """CRC32 over the packed Key Sign Object bytes, block order preserved.

    Rows pack independently (``packbits`` along the last axis), so the
    checksum is invariant to how appends were chunked.
    """
    crc = 0
    for block in blocks:
        crc = zlib.crc32(np.packbits(block.astype(np.uint8), axis=-1)
                         .tobytes(), crc)
    return crc


@dataclasses.dataclass
class _HeadStore:
    """Keys/values/sign-codes for one (user, layer, KV head)."""

    keys: List[np.ndarray] = dataclasses.field(default_factory=list)
    values: List[np.ndarray] = dataclasses.field(default_factory=list)
    signs: List[np.ndarray] = dataclasses.field(default_factory=list)
    #: running CRC32 of the packed sign bytes as written; recomputing it
    #: from the live ``signs`` detects KSO bit corruption.
    sign_crc: int = 0

    def stacked(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        if not self.keys:
            return (np.empty((0, 0)),) * 3
        return (np.concatenate(self.keys), np.concatenate(self.values),
                np.concatenate(self.signs))

    @property
    def n_keys(self) -> int:
        return sum(len(k) for k in self.keys)


class DrexDevice:
    """A compute-enabled CXL memory expander serving sparse attention.

    Args:
        n_layers / n_kv_heads / n_q_heads / head_dim: model geometry the
            device is configured for (per-user databases are independent
            per layer and KV head, Section 4).
        thresholds: SCF thresholds, broadcastable to
            ``(n_layers, n_kv_heads)``.
        rotations: optional ITQ bank applied when *writing* Key Sign
            Objects and when quantizing request queries.
        geometry / timings: hardware configuration.
        plan: the :class:`FaultPlan` this device's :attr:`injector`
            draws from on every :meth:`execute` (default: healthy).
    """

    def __init__(self, n_layers: int, n_kv_heads: int, n_q_heads: int,
                 head_dim: int, thresholds=0,
                 rotations: Optional[ItqRotations] = None,
                 geometry: DrexGeometry = DREX_DEFAULT,
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
        self.thresholds = np.broadcast_to(
            np.asarray(thresholds, dtype=np.float64),
            (n_layers, n_kv_heads)).copy()
        self.rotations = rotations
        self.geometry = geometry
        self.allocator = DrexAllocator(geometry, dtype_bytes)
        self.dcc = DrexCxlController()
        self.pfu = PimFilterUnit(geometry, timings)
        self.nma = NearMemoryAccelerator(geometry, timings)
        self.timing = timing_model or DrexTimingModel(geometry, timings)
        self.dtype_bytes = dtype_bytes
        self._stores: Dict[Tuple[int, int, int], _HeadStore] = {}
        #: optional :class:`FilterStats` accumulating the same
        #: candidates/passed/retrieved counters as the software hybrid path.
        self.stats: Optional[FilterStats] = None
        self.obs = resolve_obs(obs)
        self.injector = FaultInjector(plan or FaultPlan.none())

    # -- population ------------------------------------------------------------

    def register_user(self, uid: int) -> int:
        return self.dcc.register_user(uid)

    def evict_user(self, uid: int) -> None:
        self.dcc.unregister_user(uid)
        self.allocator.free_user(uid)
        for key in [k for k in self._stores if k[0] == uid]:
            del self._stores[key]

    def _store(self, uid: int, layer: int, kv_head: int) -> _HeadStore:
        key = (uid, layer, kv_head)
        if key not in self._stores:
            self._stores[key] = _HeadStore()
        return self._stores[key]

    def write_kv(self, uid: int, layer: int, kv_head: int, keys: np.ndarray,
                 values: np.ndarray) -> None:
        """Append Key/Value/Key-Sign Objects for one (layer, KV head).

        The GPU prepares objects in groups (the engine stages 128 at a
        time); sign bits are extracted after the optional ITQ rotation,
        matching Section 5.4's runtime application.
        """
        keys = np.atleast_2d(np.asarray(keys, dtype=np.float64))
        values = np.atleast_2d(np.asarray(values, dtype=np.float64))
        if keys.shape != values.shape or keys.shape[1] != self.head_dim:
            raise ValueError("keys/values must be (n, head_dim) and match")
        self.allocator.append_keys(uid, layer, kv_head, len(keys),
                                   self.head_dim)
        if self.rotations is not None:
            rotated = keys @ self.rotations.get(layer, kv_head)
        else:
            rotated = keys
        store = self._store(uid, layer, kv_head)
        signs = sign_bits(rotated)
        store.keys.append(keys)
        store.values.append(values)
        store.signs.append(signs)
        store.sign_crc = zlib.crc32(
            np.packbits(signs.astype(np.uint8), axis=-1).tobytes(),
            store.sign_crc)

    def context_length(self, uid: int, layer: int, kv_head: int) -> int:
        key = (uid, layer, kv_head)
        return self._stores[key].n_keys if key in self._stores else 0

    # -- KSO integrity ---------------------------------------------------------

    def kso_intact(self, uid: int, layer: int, kv_head: int) -> bool:
        """Recompute the sign-store checksum and compare with write-time CRC."""
        store = self._stores.get((uid, layer, kv_head))
        if store is None:
            return True
        return _sign_crc(store.signs) == store.sign_crc

    def corrupted_ksos(self, uid: int, layer: int) -> List[int]:
        """KV heads of ``(uid, layer)`` whose Key Sign Objects fail checksum."""
        return [kv_head for kv_head in range(self.n_kv_heads)
                if not self.kso_intact(uid, layer, kv_head)]

    def repack_kso(self, uid: int, layer: int, kv_head: int) -> None:
        """Repack sign codes from the stored full-precision keys.

        Key/Value Objects are the source of truth (sign corruption leaves
        them intact), so a corrupted KSO is repaired by re-quantizing —
        the same operation the GPU performs when first writing the keys.
        """
        store = self._stores.get((uid, layer, kv_head))
        if store is None:
            return
        rot = (self.rotations.get(layer, kv_head)
               if self.rotations is not None else None)
        store.signs = [sign_bits(block @ rot if rot is not None else block)
                       for block in store.keys]
        store.sign_crc = _sign_crc(store.signs)

    def corrupt_kso(self, uid: int, layer: int, kv_head: int,
                    rng: np.random.Generator, n_bits: int = 1) -> int:
        """Flip random stored sign bits (fault-injection hook).

        The write-time CRC is deliberately left untouched, so the
        corruption is detectable by :meth:`kso_intact`.  Returns the number
        of bits flipped (0 when the store is empty).
        """
        store = self._stores.get((uid, layer, kv_head))
        if store is None or not store.signs:
            return 0
        sizes = [block.size for block in store.signs]
        total = sum(sizes)
        # Distinct flat positions: an even number of flips at one position
        # would cancel out and evade the checksum.
        chosen = rng.choice(total, size=min(n_bits, total), replace=False)
        starts = np.cumsum([0] + sizes[:-1])
        for flat in np.sort(chosen):
            b = int(np.searchsorted(starts, flat, side="right")) - 1
            block = store.signs[b]
            i, j = divmod(int(flat - starts[b]), block.shape[1])
            block[i, j] ^= True
        return len(chosen)

    # -- offload execution ---------------------------------------------------------

    def execute(self, request: RequestDescriptor) -> ResponseDescriptor:
        """Submit, process and read back one offload synchronously.

        The injector is consulted in a fixed order: queue -> buffers ->
        corruption -> CXL timeout before the offload runs, then the
        latency faults after it.  KSO corruption persists in the sign
        store until repaired — like real DRAM disturbance — while an NMA
        stall or a degraded link distorts only the returned
        :class:`LatencyBreakdown`, never the computed top-k.
        """
        inj = self.injector
        if inj.fires("queue_full"):
            raise QueueFullError(
                "injected: DCC request queue full (depth "
                f"{self.dcc.QUEUE_DEPTH})")
        if inj.fires("response_buffer"):
            raise QueueFullError(
                "injected: all DCC response buffers exhausted")
        if inj.fires("kso_corruption"):
            kv_head = int(inj.rng.integers(self.n_kv_heads))
            self.corrupt_kso(request.uid, request.layer, kv_head, inj.rng,
                             n_bits=inj.plan.kso_bits_flipped)
        if inj.fires("cxl_timeout"):
            raise OffloadTimeoutError(
                "injected: CXL response timed out (stalled link or lost "
                "completion)")
        self.dcc.submit(request)
        popped = self.dcc.pop_next()
        self.dcc.complete(self._process(popped))
        response = self.dcc.read_response(request.uid)
        if inj.fires("nma_stall"):
            response.latency.rank_ns += inj.plan.nma_stall_ns
        if inj.fires("cxl_degraded"):
            response.latency.value_read_ns *= inj.plan.cxl_degradation_factor
        return response

    def _process(self, request: RequestDescriptor) -> ResponseDescriptor:
        queries = np.asarray(request.queries, dtype=np.float64)
        if queries.ndim == 2:  # (n_q_heads, d) single-token decode
            queries = queries[:, None, :]
        n_q_heads, n_tokens, d = queries.shape
        if n_q_heads != self.n_q_heads or d != self.head_dim:
            raise ValueError("request query shape mismatch")
        if n_tokens * self.group > self.geometry.pfu_max_queries:
            raise ValueError("attention group exceeds PFU limit of 16 queries")
        heads: List[Optional[HeadResult]] = [None] * (n_q_heads * n_tokens)
        costs: List[OffloadCost] = []
        for kv_head in range(self.n_kv_heads):
            results, cost = self._offload_head(request.uid, request.layer,
                                               kv_head, queries,
                                               request.top_k)
            costs.extend(cost)
            for g in range(self.group):
                for t in range(n_tokens):
                    heads[(kv_head * self.group + g) * n_tokens + t] = \
                        results[g * n_tokens + t]
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
        return ResponseDescriptor(uid=request.uid, layer=request.layer,
                                  heads=heads, dtype_bytes=self.dtype_bytes,
                                  latency=latency)

    def _offload_head(self, uid: int, layer: int, kv_head: int,
                      queries: np.ndarray, top_k: int):
        """Filter/score/rank one KV head's group of queries.

        Returns (list of HeadResult per (group-head, token)), and the
        per-package OffloadCost list for the timing model.
        """
        group_q = queries[kv_head * self.group : (kv_head + 1) * self.group]
        flat_q = group_q.reshape(-1, self.head_dim)  # (G*, d)
        store = self._stores.get((uid, layer, kv_head))
        if store is None or store.n_keys == 0:
            empty = [HeadResult(np.empty(0, dtype=np.int64), np.empty(0),
                                np.empty((0, self.head_dim)))
                     for _ in range(len(flat_q))]
            return empty, []
        keys, values, signs = store.stacked()
        n = len(keys)
        threshold = float(self.thresholds[layer, kv_head])

        # Stage 1: PFU filtering, block by 128-key block (bank granularity).
        if self.rotations is not None:
            q_rot = flat_q @ self.rotations.get(layer, kv_head)
        else:
            q_rot = flat_q
        q_packed = pack_signs(q_rot)
        survive = np.zeros((len(flat_q), n), dtype=bool)
        block = self.geometry.pfu_keys_per_block
        for start in range(0, n, block):
            stop = min(start + block, n)
            k_packed = np.packbits(signs[start:stop].astype(np.uint8), axis=-1)
            survive[:, start:stop] = self.pfu.filter_block(
                k_packed, q_packed, self.head_dim, threshold)

        # Stage 2/3: NMA scoring + ranking.  Keys surviving for any query of
        # the group are fetched once; each query then ranks only the keys
        # its own bitmap passed (the NMA's per-query valid mask).
        results: List[HeadResult] = []
        survivors_union = np.flatnonzero(survive.any(axis=0))
        sub_keys = keys[survivors_union]
        scored = self.nma.score_and_rank(flat_q, sub_keys, top_k,
                                         valid_mask=survive[:, survivors_union])
        n_tokens = len(flat_q) // self.group
        stats_per_q = (self.stats is not None
                       and self.stats.n_kv_heads == self.n_q_heads
                       and self.n_q_heads != self.n_kv_heads)
        for qi in range(len(flat_q)):
            global_idx = survivors_union[scored.indices[qi]]
            results.append(HeadResult(
                indices=global_idx,
                scores=scored.scores[qi],
                values=values[global_idx],
            ))
            if self.stats is not None:
                h = kv_head * self.group + qi // n_tokens
                self.stats.update(
                    layer, h if stats_per_q else kv_head,
                    candidates=n, passed=int(survive[qi].sum()),
                    retrieved=len(global_idx), queries=1)

        # Timing inputs: split the slice chain by package.
        chain = self.allocator.partitions[uid].slices[(layer, kv_head)]
        costs = []
        offset = 0
        per_query_survivors = survive.sum(axis=1)
        total_survivors = max(1, int(survive.any(axis=0).sum()))
        for s in chain:
            seg = s.n_keys
            if seg == 0:
                continue
            seg_survivors = int(survive[:, offset : offset + seg].any(axis=0).sum())
            seg_retrieved = int(round(
                min(top_k, float(per_query_survivors.mean()))
                * seg_survivors / total_survivors))
            costs.append(OffloadCost(
                n_keys=seg, n_survivors=seg_survivors,
                n_retrieved=seg_retrieved, n_query_heads=len(flat_q),
                head_dim=self.head_dim, top_k=top_k,
                dtype_bytes=self.dtype_bytes))
            offset += seg
        return results, costs
