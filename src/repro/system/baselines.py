"""Baseline serving systems for Figure 7 / Figure 10 comparisons.

All baselines share the synchronized-batch decode model: per generated
token, every layer executes its batched GEMMs plus per-user attention; the
per-token latency is the sum over layers, and aggregate throughput is
``n_users / latency``.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, Optional

from repro.llm.config import ModelConfig
from repro.system.gpu import GpuModel
from repro.system.specs import GpuSpec, H100


@dataclasses.dataclass
class ServingPoint:
    """One (system, model, context, users) evaluation."""

    system: str
    model: str
    context: int
    n_users: int
    token_latency_s: float
    breakdown: Dict[str, float]  # per-token seconds by component

    @property
    def throughput_tps(self) -> float:
        """Aggregate decode tokens/second across all users."""
        return self.n_users / self.token_latency_s

    @property
    def per_user_tps(self) -> float:
        """Tokens/second/user (inverse per-token latency)."""
        return 1.0 / self.token_latency_s

    def as_row(self) -> dict:
        return {
            "system": self.system,
            "model": self.model,
            "context": self.context,
            "users": self.n_users,
            "throughput_tps": self.throughput_tps,
            "latency_ms": self.token_latency_s * 1e3,
        }


class DenseGpuSystem:
    """1..N GPUs running full dense attention, data-parallel across users.

    Data parallelism duplicates weights on every GPU but introduces no
    communication (Section 8.2); users split evenly, so the slowest GPU
    (the one with ``ceil(U / n_gpus)`` users) sets the token latency.
    """

    def __init__(self, n_gpus: int = 1, spec: GpuSpec = H100) -> None:
        if n_gpus < 1:
            raise ValueError("need at least one GPU")
        self.n_gpus = n_gpus
        self.gpu = GpuModel(spec)

    @property
    def name(self) -> str:
        return f"{self.n_gpus}-GPU"

    def max_users(self, config: ModelConfig, context: int) -> int:
        return self.gpu.max_users(config, context) * self.n_gpus

    # -- heterogeneous-context interface (serving engine) ----------------------

    def admits(self, config: ModelConfig, contexts) -> bool:
        """Do these per-user KV caches fit (greedy first-fit per GPU)?"""
        per_user = [c * config.kv_bytes_per_token() for c in contexts]
        free = self.gpu.spec.usable_bytes - self.gpu.weight_bytes(config)
        if free <= 0:
            return False
        gpus = [free] * self.n_gpus
        for need in sorted(per_user, reverse=True):
            best = max(range(self.n_gpus), key=lambda i: gpus[i])
            if gpus[best] < need:
                return False
            gpus[best] -= need
        return True

    def step_latency_s(self, config: ModelConfig, contexts) -> float:
        """One decode step for users with individual context lengths."""
        if not contexts:
            return 0.0
        per_gpu = -(-len(contexts) // self.n_gpus)
        gemm = self.gpu.weight_gemm_ns(config, per_gpu) * config.n_layers
        # Attention traffic is additive per user; split evenly over GPUs.
        attn = sum(self.gpu.dense_attention_ns(config, 1, c)
                   for c in contexts) / self.n_gpus * config.n_layers
        head = self.gpu.lm_head_ns(config, per_gpu)
        overhead = self.gpu.spec.kernel_overhead_ns * config.n_layers
        return (gemm + attn + head + overhead) * 1e-9

    def evaluate(self, config: ModelConfig, context: int,
                 n_users: int) -> Optional[ServingPoint]:
        """Per-token latency/throughput, or None if HBM cannot fit it."""
        per_gpu = -(-n_users // self.n_gpus)  # ceil
        if not self.gpu.fits(config, context, per_gpu):
            return None
        gemm = self.gpu.weight_gemm_ns(config, per_gpu) * config.n_layers
        attn = self.gpu.dense_attention_ns(config, per_gpu, context) \
            * config.n_layers
        head = self.gpu.lm_head_ns(config, per_gpu)
        overhead = self.gpu.spec.kernel_overhead_ns * config.n_layers
        total_ns = gemm + attn + head + overhead
        return ServingPoint(
            system=self.name, model=config.name, context=context,
            n_users=n_users, token_latency_s=total_ns * 1e-9,
            breakdown={
                "gemm_s": gemm * 1e-9,
                "attention_s": attn * 1e-9,
                "lm_head_s": head * 1e-9,
                "overhead_s": overhead * 1e-9,
            })


class AttAccSystem:
    """AttAcc-style baseline: dense decode attention on HBM-PIM.

    One H100 plus bank-level PIM in its HBM stacks: attention traffic runs
    at the PIM-internal bandwidth (all banks active) while GEMMs stay on
    the GPU cores.  Perplexity is exactly dense ("its perplexity [increase]
    is zero").  Capacity is still bounded by HBM.
    """

    #: Effective bank-level PIM bandwidth multiplier over external HBM
    #: bandwidth (AttAcc reports ~4x attention speedups from bank-level
    #: parallelism on HBM3).
    PIM_BANDWIDTH_SCALE = 4.0

    def __init__(self, spec: GpuSpec = H100) -> None:
        self.gpu = GpuModel(spec)
        self.pim_bandwidth = spec.hbm_bandwidth * self.PIM_BANDWIDTH_SCALE

    name = "AttAcc"

    def max_users(self, config: ModelConfig, context: int) -> int:
        return self.gpu.max_users(config, context)

    def evaluate(self, config: ModelConfig, context: int,
                 n_users: int) -> Optional[ServingPoint]:
        if not self.gpu.fits(config, context, n_users):
            return None
        gemm = self.gpu.weight_gemm_ns(config, n_users) * config.n_layers
        attn = self.gpu.dense_attention_ns(
            config, n_users, context,
            bandwidth_override=self.pim_bandwidth) * config.n_layers
        head = self.gpu.lm_head_ns(config, n_users)
        overhead = self.gpu.spec.kernel_overhead_ns * config.n_layers
        total_ns = gemm + attn + head + overhead
        return ServingPoint(
            system=self.name, model=config.name, context=context,
            n_users=n_users, token_latency_s=total_ns * 1e-9,
            breakdown={
                "gemm_s": gemm * 1e-9,
                "attention_s": attn * 1e-9,
                "lm_head_s": head * 1e-9,
                "overhead_s": overhead * 1e-9,
            })


class SlidingWindowGpuSystem:
    """Sliding-window attention on one GPU (Figure 10's software baseline).

    Attention cost covers only sinks + window; the KV cache can be evicted
    beyond the window, so capacity is bounded by the window, not the
    context.
    """

    def __init__(self, window: int = 1024, n_sink: int = 16,
                 spec: GpuSpec = H100) -> None:
        self.window = window
        self.n_sink = n_sink
        self.gpu = GpuModel(spec)

    @property
    def name(self) -> str:
        return f"SlidingWindow(W={self.window})"

    def max_users(self, config: ModelConfig, context: int) -> int:
        kept = min(context, self.window + self.n_sink)
        return self.gpu.max_users(config, kept)

    # -- heterogeneous-context interface (serving engine) ----------------------

    def _kept(self, context: int) -> int:
        return min(context, self.window + self.n_sink)

    def admits(self, config: ModelConfig, contexts) -> bool:
        """Do the retained sink+window KV caches fit in HBM?"""
        free = self.gpu.spec.usable_bytes - self.gpu.weight_bytes(config)
        if free <= 0:
            return False
        need = sum(self._kept(c) for c in contexts) \
            * config.kv_bytes_per_token()
        return need <= free

    def step_latency_s(self, config: ModelConfig, contexts) -> float:
        """One decode step for users with individual context lengths."""
        if not contexts:
            return 0.0
        n_users = len(contexts)
        gemm = self.gpu.weight_gemm_ns(config, n_users) * config.n_layers
        attn = sum(self.gpu.dense_attention_ns(config, 1, self._kept(c))
                   for c in contexts) * config.n_layers
        head = self.gpu.lm_head_ns(config, n_users)
        overhead = self.gpu.spec.kernel_overhead_ns * config.n_layers
        return (gemm + attn + head + overhead) * 1e-9

    def evaluate(self, config: ModelConfig, context: int,
                 n_users: int) -> Optional[ServingPoint]:
        kept = min(context, self.window + self.n_sink)
        if not self.gpu.fits(config, kept, n_users):
            return None
        gemm = self.gpu.weight_gemm_ns(config, n_users) * config.n_layers
        attn = self.gpu.dense_attention_ns(config, n_users, kept) \
            * config.n_layers
        head = self.gpu.lm_head_ns(config, n_users)
        overhead = self.gpu.spec.kernel_overhead_ns * config.n_layers
        total_ns = gemm + attn + head + overhead
        return ServingPoint(
            system=self.name, model=config.name, context=context,
            n_users=n_users, token_latency_s=total_ns * 1e-9,
            breakdown={
                "gemm_s": gemm * 1e-9,
                "attention_s": attn * 1e-9,
                "lm_head_s": head * 1e-9,
                "overhead_s": overhead * 1e-9,
            })
