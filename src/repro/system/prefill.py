"""Prefill-phase cost model (Section 6).

The paper evaluates only decode ("LongSight does not impact the
performance of the prefill phase") but its execution model specifies what
prefill does: the GPU runs compute-bound matrix-matrix kernels over the
prompt, accumulates KV in HBM, and — once past the window threshold —
prepares Key Sign / Key / Value Objects in groups of 128 and streams them
to DReX *off the critical path*.

This model quantifies that: GPU prefill time from a compute/memory
roofline (GEMMs linear in prompt length, attention quadratic), DReX
population time from object sizes over the CXL link, and the exposed
(non-overlapped) remainder.
"""

from __future__ import annotations

import dataclasses
from typing import Optional

from repro.core.config import LongSightConfig
from repro.drex.cxl import LINK
from repro.llm.config import ModelConfig
from repro.system.gpu import GpuModel
from repro.system.specs import GpuSpec, H100


@dataclasses.dataclass
class PrefillBreakdown:
    """Seconds spent in each prefill phase for one user."""

    gpu_gemm_s: float
    gpu_attention_s: float
    drex_write_s: float
    exposed_write_s: float

    @property
    def gpu_s(self) -> float:
        return self.gpu_gemm_s + self.gpu_attention_s

    @property
    def total_s(self) -> float:
        """Critical-path prefill latency: GPU work + exposed transfers."""
        return self.gpu_s + self.exposed_write_s


class PrefillModel:
    """Roofline prefill estimates for LongSight (and dense baselines)."""

    #: Objects stream in groups of 128 keys (Section 6).
    GROUP_TOKENS = 128

    def __init__(self, spec: GpuSpec = H100) -> None:
        self.gpu = GpuModel(spec)

    def gpu_gemm_s(self, config: ModelConfig, prompt: int) -> float:
        """Linear kernels (QKV, projections, FFN, unembed) over the prompt."""
        weight_bytes = (self.gpu.layer_weight_bytes(config) * config.n_layers
                        + config.vocab_size * config.d_model
                        * config.dtype_bytes)
        flops = 2.0 * (weight_bytes / config.dtype_bytes) * prompt
        return max(flops / self.gpu.spec.flops,
                   weight_bytes / self.gpu.spec.hbm_bandwidth)

    def gpu_attention_s(self, config: ModelConfig, prompt: int) -> float:
        """Causal self-attention over the prompt (quadratic FLOPs)."""
        flops = (2.0 * 2.0 * config.n_q_heads * config.head_dim
                 * prompt * prompt / 2.0 * config.n_layers)
        kv_bytes = prompt * config.kv_bytes_per_token()
        return max(flops / self.gpu.spec.flops,
                   kv_bytes / self.gpu.spec.hbm_bandwidth)

    def drex_object_bytes(self, config: ModelConfig, prompt: int,
                          ls: LongSightConfig) -> int:
        """Key Sign + Key + Value Object bytes shipped to DReX."""
        offloaded = max(0, prompt - ls.window - ls.n_sink)
        groups = -(-offloaded // self.GROUP_TOKENS)
        tokens = groups * self.GROUP_TOKENS
        sign = tokens * config.head_dim // 8
        kv = 2 * tokens * config.head_dim * config.dtype_bytes
        return (sign + kv) * config.n_kv_heads * config.n_layers

    def prefill(self, config: ModelConfig, prompt: int,
                ls: Optional[LongSightConfig] = None) -> PrefillBreakdown:
        """Prefill breakdown; ``ls=None`` models a dense baseline (no DReX)."""
        gemm = self.gpu_gemm_s(config, prompt)
        attention = self.gpu_attention_s(config, prompt)
        if ls is None:
            return PrefillBreakdown(gemm, attention, 0.0, 0.0)
        write = LINK.serialization_ns(
            self.drex_object_bytes(config, prompt, ls)) * 1e-9
        # Transfers overlap GPU compute (separate kernels/DMA, Section 6);
        # only the excess over compute is exposed.
        exposed = max(0.0, write - (gemm + attention))
        return PrefillBreakdown(gemm, attention, write, exposed)
