"""The LongSight serving engine performance model (Sections 6 and 9).

Execution per decode token, per layer (Figure 2b):

1. GPU computes QKV (+ runtime ITQ) and writes a Request Descriptor per
   user into the DCC queue (CXL submit).
2. GPU performs dense sink+window attention *in parallel with* the DReX
   offload (filter -> score -> rank) — the overlap the hybrid design buys.
3. GPU polls, pulls top-k scores/values over CXL, merges with the dense
   scores in one softmax, and runs output projection + FFN.

Per-layer time is therefore
``max(gpu_dense_side, drex_device + cxl_value_read) + merge + gemms``,
with three shared resources that saturate independently as users grow:
GPU (batched GEMMs + windows), the 8 NMAs (one offload unit per user x
KV head x slice segment), and the CXL link (one response per user).
"""

from __future__ import annotations

import math
from typing import Dict, Optional

from repro.core.config import LongSightConfig
from repro.drex.cxl import LINK
from repro.drex.descriptors import request_bytes, response_entry_bytes
from repro.drex.dram import LpddrTimings, LPDDR5X
from repro.drex.geometry import DrexGeometry, DREX_DEFAULT
from repro.drex.layout import rows_per_group
from repro.drex.sched import DrexScheduler, SimOutcome, decode_step_jobs
from repro.drex.timing import DrexTimingModel, LatencyBreakdown, OffloadCost
from repro.llm.config import ModelConfig
from repro.system.baselines import ServingSystem
from repro.system.gpu import GpuModel
from repro.system.specs import GpuSpec, H100

#: Average staging overhang: KV pairs wait in HBM until a group of 128 has
#: left the window (Section 6), so the dense region averages W + 64 tokens.
STAGING_OVERHANG = 64


class LongSightSystem(ServingSystem):
    """One GPU + one DReX unit serving hybrid dense-sparse attention."""

    name = "LongSight"

    def __init__(self, ls_config: Optional[LongSightConfig] = None,
                 pass_rate: float = 0.05,
                 gpu_spec: GpuSpec = H100,
                 geometry: DrexGeometry = DREX_DEFAULT,
                 timings: LpddrTimings = LPDDR5X) -> None:
        """
        Args:
            ls_config: algorithm parameters (window, sinks, k, thresholds).
            pass_rate: expected fraction of sparse keys surviving SCF.  The
                paper's tuned configuration achieves a ~20x filter ratio;
                with k = 1,024 that corresponds to a pass rate of ~5%.
        """
        self.ls = ls_config or LongSightConfig()
        self.pass_rate = pass_rate
        self.gpu = GpuModel(gpu_spec)
        self.geometry = geometry
        self.timing = DrexTimingModel(geometry, timings)

    # -- capacity ---------------------------------------------------------------

    def sparse_tokens(self, context: int) -> int:
        """Tokens offloaded to DReX for one user at ``context``."""
        return max(0, context - self.ls.window - self.ls.n_sink)

    def drex_bytes_per_user(self, config: ModelConfig, context: int) -> int:
        """DReX footprint of one user (keys + values + sign objects)."""
        n = self.sparse_tokens(context)
        if n == 0:
            return 0
        groups = math.ceil(n / self.geometry.keys_per_key_block_group)
        rows = rows_per_group(config.head_dim, self.geometry,
                              config.dtype_bytes)
        per_head_layer = (groups * rows * self.geometry.row_bytes
                          * self.geometry.channels_per_package)
        return per_head_layer * config.n_kv_heads * config.n_layers

    def gpu_resident_tokens(self, context: int) -> int:
        """KV tokens kept in HBM per user: sinks + window + staging."""
        return min(context, self.ls.n_sink + self.ls.window + STAGING_OVERHANG)

    # -- DReX-side costs ------------------------------------------------------------

    def effective_top_k(self, context: int) -> int:
        """Values actually retrieved per KV head: min(k, expected survivors)."""
        n = self.sparse_tokens(context)
        return int(min(self.ls.top_k, max(0, round(self.pass_rate * n))))

    def _segments(self, context: int) -> tuple[int, int]:
        """(number of slice segments per head, keys per segment)."""
        n = self.sparse_tokens(context)
        if n == 0:
            return 0, 0
        cap = self.geometry.max_keys_per_context_slice
        segments = math.ceil(n / cap)
        return segments, math.ceil(n / segments)

    def offload_unit(self, config: ModelConfig, context: int) -> LatencyBreakdown:
        """Device-side latency of one package-segment of one head's offload."""
        segments, seg_keys = self._segments(context)
        if segments == 0:
            return LatencyBreakdown()
        group = config.gqa_group_size
        cost = OffloadCost(
            n_keys=seg_keys,
            n_survivors=max(1, round(self.pass_rate * seg_keys)),
            n_retrieved=self.effective_top_k(context) // segments,
            n_query_heads=group,
            head_dim=config.head_dim,
            top_k=self.ls.top_k,
            dtype_bytes=config.dtype_bytes)
        return self.timing.package_latency(cost)

    def value_bytes_per_user_layer(self, config: ModelConfig,
                                   context: int) -> float:
        """Response size: top-k scores+values per KV head (group-shared)."""
        return config.n_kv_heads * self.effective_top_k(context) \
            * response_entry_bytes(config.head_dim, config.dtype_bytes)

    # -- the decode step -----------------------------------------------------------

    def admits(self, config: ModelConfig, contexts) -> bool:
        """Batch limit: DCC queue depth, DReX capacity, and GPU HBM."""
        if len(contexts) > 512:
            return False
        drex_need = sum(self.drex_bytes_per_user(config, c) for c in contexts)
        if drex_need > self.geometry.capacity_bytes:
            return False
        gpu_resident = sum(self.gpu_resident_tokens(c) for c in contexts)
        gpu_need = self.gpu.weight_bytes(config) \
            + gpu_resident * config.kv_bytes_per_token()
        return gpu_need <= self.gpu.spec.usable_bytes

    def layer_occupancy_ns(self, config: ModelConfig, contexts,
                           degraded=None) -> Dict[str, float]:
        """Per-layer busy time of each resource for one decode step.

        ``degraded`` is a parallel sequence of booleans (or ``None`` for all
        healthy).  A degraded session still pays its dense sink+window
        attention but contributes nothing to the offload path — no runtime
        ITQ, no DReX occupancy, no CXL response, no merge.  A user's offload
        units (``n_kv_heads x segments`` package-units) spread over the
        NMAs, which execute them serially.
        """
        if degraded is None:
            sparse_ctx = list(contexts)
        else:
            sparse_ctx = [c for c, d in zip(contexts, degraded) if not d]
        itq = self.gpu.itq_ns(config, len(sparse_ctx)) \
            if self.ls.use_itq and sparse_ctx else 0.0
        window_attn = sum(
            self.gpu.dense_attention_ns(config, 1,
                                        self.gpu_resident_tokens(c))
            for c in contexts)
        merge = sum(
            self.gpu.merge_ns(config, 1, self.effective_top_k(c))
            for c in sparse_ctx if self.sparse_tokens(c) > 0)
        drex = 0.0
        cxl = 0.0
        any_sparse = False
        for c in sparse_ctx:
            segments, _ = self._segments(c)
            if segments == 0:
                continue
            any_sparse = True
            unit = self.offload_unit(config, c).compute_ns
            units = config.n_kv_heads * segments
            drex += units * unit / self.geometry.n_nmas
            cxl += LINK.serialization_ns(
                request_bytes(config.n_q_heads * config.head_dim,
                              config.dtype_bytes)
                + self.value_bytes_per_user_layer(config, c))
        return {
            "gemm": self.gpu.weight_gemm_ns(config, len(contexts)),
            "itq": itq,
            "window_attn": window_attn,
            "merge": merge,
            "drex": drex,
            "cxl": cxl,
            "poll": LINK.polling_overhead_ns if any_sparse else 0.0,
        }

    def _step(self, config, contexts, degraded=None):
        occ = self.layer_occupancy_ns(config, contexts, degraded)
        # Value transfers for completed offloads overlap NMA compute of the
        # queued ones (Section 9.2), so the offload path is the slower of
        # the two occupancies; dense window attention overlaps it all.
        offload_path = max(occ["drex"], occ["cxl"]) + occ["poll"]
        layer_ns = occ["gemm"] + occ["itq"] \
            + max(occ["window_attn"], offload_path) + occ["merge"] \
            + self.gpu.spec.kernel_overhead_ns
        n_layers = config.n_layers
        head = self.gpu.lm_head_ns(config, len(contexts))
        total_ns = layer_ns * n_layers + head
        exposed = max(0.0, offload_path - occ["window_attn"])
        return total_ns * 1e-9, {
            "gemm_s": (occ["gemm"] + occ["itq"]) * n_layers * 1e-9,
            "window_attention_s": occ["window_attn"] * n_layers * 1e-9,
            "drex_s": occ["drex"] * n_layers * 1e-9,
            "cxl_s": (occ["cxl"] + occ["poll"]) * n_layers * 1e-9,
            "exposed_offload_s": exposed * n_layers * 1e-9,
            "merge_s": occ["merge"] * n_layers * 1e-9,
            "lm_head_s": head * 1e-9,
        }

    def bottleneck(self, config: ModelConfig, context: int,
                   n_users: int) -> str:
        """Which resource bounds the per-layer time (Figure 9's narrative)."""
        occ = self.layer_occupancy_ns(config, [context] * n_users)
        costs = {"GPU": occ["gemm"] + occ["window_attn"] + occ["merge"],
                 "DReX": occ["drex"], "CXL": occ["cxl"]}
        return max(costs, key=costs.get)

    # -- discrete-event cross-validation -----------------------------------------

    def simulate_decode_layer(self, config: ModelConfig, context: int,
                              n_users: int, stagger_ns: float = 0.0):
        """Event-driven simulation of one decode layer's offloads.

        Builds the same per-package unit costs the analytical model uses
        and runs them through :class:`repro.drex.sched.DrexScheduler`,
        returning the :class:`repro.drex.sched.SimOutcome`.  Used to
        validate the analytical ``ceil(units/nmas)`` approximation and to
        measure per-request latency distributions / SLO attainment
        (Section 4's "few hundred microseconds" budget).
        """
        segments, _ = self._segments(context)
        if segments == 0:
            return SimOutcome(results=[], makespan_ns=0.0,
                              nma_busy_ns={}, cxl_busy_ns=0.0)
        unit = self.offload_unit(config, context).compute_ns
        transfer = LINK.serialization_ns(
            self.value_bytes_per_user_layer(config, context))
        jobs = decode_step_jobs(
            n_users=n_users, unit_compute_ns=unit,
            n_units_per_user=config.n_kv_heads * segments,
            value_transfer_ns=transfer, geometry=self.geometry,
            stagger_ns=stagger_ns)
        return DrexScheduler(self.geometry).simulate(jobs)

    # -- Figure 8 support ---------------------------------------------------------

    def single_offload_breakdown(self, config: ModelConfig,
                                 context: int) -> Dict[str, float]:
        """Latency components of one (user, layer) offload, single user.

        Heads proceed in parallel on their own packages; the value read is
        fully exposed (nothing to overlap with).  Nanoseconds.
        """
        segments, _ = self._segments(context)
        if segments == 0:
            return {k: 0.0 for k in ("address_gen", "filter", "bitmap_read",
                                     "score", "rank", "value_read")}
        unit = self.offload_unit(config, context)
        # A head chains over `segments` packages, executed in parallel when
        # NMAs are free (single user): latency ~= one unit + value read.
        chain_serial = math.ceil(
            segments * config.n_kv_heads / self.geometry.n_nmas)
        value_ns = LINK.serialization_ns(
            self.value_bytes_per_user_layer(config, context)) \
            + LINK.latency_ns
        parts = unit.components()
        return {
            "address_gen": parts["address_gen"] * chain_serial,
            "filter": parts["filter"] * chain_serial,
            "bitmap_read": parts["bitmap_read"] * chain_serial,
            "score": parts["score"] * chain_serial,
            "rank": parts["rank"] * chain_serial,
            "value_read": value_ns,
        }

    def saturated_offload_breakdown(self, config: ModelConfig,
                                    context: int) -> Dict[str, float]:
        """Per-offload amortized components when DReX is fully utilized.

        Value reads for earlier partitions overlap the dot-product phase of
        later ones (Section 9.2), so only the excess over compute is
        exposed.  Nanoseconds per (user, layer) offload.
        """
        single = self.single_offload_breakdown(config, context)
        compute = sum(v for k, v in single.items() if k != "value_read")
        exposed_value = max(0.0, single["value_read"] - compute)
        out = dict(single)
        out["value_read"] = exposed_value
        return out
