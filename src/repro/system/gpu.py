"""GPU roofline model for decode-phase kernels (Section 8.2).

The paper measures real GPU time; we substitute a roofline with the same
peak numbers (Table 2).  Decode is dominated by memory traffic: weight
matrices stream once per token for the whole batch (GEMM amortization),
while attention streams each user's KV history individually
(vector-matrix, no reuse) — exactly the asymmetry that makes decode
attention the bottleneck (Section 2.1).
"""

from __future__ import annotations

from repro.llm.config import ModelConfig
from repro.system.specs import GpuSpec, H100


class GpuModel:
    """Roofline estimates for one GPU executing decode for ``n_users``."""

    def __init__(self, spec: GpuSpec = H100) -> None:
        self.spec = spec

    # -- building blocks -----------------------------------------------------------

    def _roofline_ns(self, flops: float, n_bytes: float) -> float:
        compute = flops / self.spec.flops
        memory = n_bytes / self.spec.hbm_bandwidth
        return max(compute, memory) * 1e9

    def layer_weight_bytes(self, config: ModelConfig) -> int:
        d = config.d_model
        params = (d * config.n_q_heads * config.head_dim
                  + 2 * d * config.kv_dim
                  + config.n_q_heads * config.head_dim * d
                  + 3 * d * config.d_ff)
        return params * config.dtype_bytes

    def weight_gemm_ns(self, config: ModelConfig, n_users: int) -> float:
        """QKV + output projection + FFN for one layer, whole batch.

        Weights stream once (batch-amortized); compute scales with users.
        """
        n_bytes = self.layer_weight_bytes(config)
        flops = 2.0 * (n_bytes / config.dtype_bytes) * n_users
        return self._roofline_ns(flops, n_bytes)

    def lm_head_ns(self, config: ModelConfig, n_users: int) -> float:
        """Final norm + unembedding GEMM per token."""
        n_bytes = config.vocab_size * config.d_model * config.dtype_bytes
        flops = 2.0 * config.vocab_size * config.d_model * n_users
        return self._roofline_ns(flops, n_bytes)

    def dense_attention_ns(self, config: ModelConfig, n_users: int,
                           context: int,
                           bandwidth_override: float | None = None) -> float:
        """Decode attention over ``context`` tokens per user (one layer).

        Memory-bound: K and V stream per user with no batch reuse.
        ``bandwidth_override`` lets the AttAcc baseline run the same
        traffic at HBM-PIM internal bandwidth.
        """
        n_bytes = 2.0 * context * config.kv_dim * config.dtype_bytes * n_users
        flops = (2.0 * context * config.n_q_heads * config.head_dim * 2.0
                 * n_users)
        if bandwidth_override is not None:
            compute = flops / self.spec.flops
            memory = n_bytes / bandwidth_override
            return max(compute, memory) * 1e9
        return self._roofline_ns(flops, n_bytes)

    def itq_ns(self, config: ModelConfig, n_users: int) -> float:
        """Runtime ITQ rotation of Q and K (Section 5.4: <3% of QKV cost)."""
        d = config.head_dim
        flops = 2.0 * d * d * (config.n_q_heads + config.n_kv_heads) * n_users
        n_bytes = (config.n_kv_heads * d * d * config.dtype_bytes
                   * config.n_layers / config.n_layers)  # rotation matrices
        return self._roofline_ns(flops, n_bytes)

    def merge_ns(self, config: ModelConfig, n_users: int, top_k: int) -> float:
        """Hybrid softmax + SV over the returned top-k (one layer).

        Streams k values per KV head per user from HBM (where the CXL
        engine deposited them) and accumulates.
        """
        n_bytes = (top_k * config.kv_dim * config.dtype_bytes * n_users)
        flops = 2.0 * top_k * config.n_q_heads * config.head_dim * n_users
        return self._roofline_ns(flops, n_bytes)

    # -- capacity -------------------------------------------------------------------

    def weight_bytes(self, config: ModelConfig) -> int:
        layers = self.layer_weight_bytes(config) * config.n_layers
        embed = config.vocab_size * config.d_model * config.dtype_bytes
        return layers + embed
