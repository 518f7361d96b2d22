"""Serving systems for Figure 7 / Figure 10 comparisons.

Every system is one decode-step routine over per-session contexts
(``_step``) and one capacity rule (``admits``); :class:`ServingSystem`
derives the serving engine's ``step_latency_s`` and the figures'
``evaluate`` / ``max_users`` (a uniform batch of ``n_users`` sessions at
one context) from those two, so the figures and the engine cannot drift.

The dense baselines share the synchronized-batch decode model: per
generated token, every layer executes its batched GEMMs plus per-user
attention; the per-token latency is the sum over layers, and aggregate
throughput is ``n_users / latency``.  Data-parallel GPUs place users
greedily (largest KV cache first, onto the GPU with the most free HBM);
the same placement is the capacity rule (no GPU ends over its HBM) and
the step's cost, which is the slowest GPU's.

Kept unreached: ``ServingSystem.admits``, ``ServingSystem._step``,
``SlidingWindowGpuSystem.name`` — declared protocol.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.config import LongSightConfig
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


class ServingSystem:
    """A system's one step routine and one capacity rule, and what follows.

    Subclasses define ``name``, ``admits(config, contexts)`` — monotone:
    a batch that fits still fits with a session removed — and
    ``_step(config, contexts, degraded)``, which returns the per-token
    latency in seconds and its breakdown by component.
    """

    #: the hybrid-attention config a system offloads under (what prefill
    #: is charged at); ``None`` for a system that serves dense attention.
    ls: Optional[LongSightConfig] = None

    def admits(self, config: ModelConfig, contexts: Sequence[int]) -> bool:
        raise NotImplementedError

    def _step(self, config: ModelConfig, contexts: List[int],
              degraded: Optional[Sequence[bool]] = None
              ) -> Tuple[float, Dict[str, float]]:
        raise NotImplementedError

    def step_latency_s(self, config: ModelConfig, contexts: Sequence[int],
                       degraded: Optional[Sequence[bool]] = None) -> float:
        """One decode step for users with individual context lengths.

        ``degraded`` optionally flags, per session, a fall back to the
        dense-only path; only a system that offloads charges it less.
        """
        if not contexts:
            return 0.0
        return self._step(config, list(contexts), degraded)[0]

    def evaluate(self, config: ModelConfig, context: int,
                 n_users: int) -> Optional[ServingPoint]:
        """The step of ``n_users`` sessions at ``context``; None if they
        do not fit."""
        contexts = [context] * n_users
        if not self.admits(config, contexts):
            return None
        latency, breakdown = self._step(config, contexts)
        return ServingPoint(
            system=self.name, model=config.name, context=context,
            n_users=n_users, token_latency_s=latency, breakdown=breakdown)

    def max_users(self, config: ModelConfig, context: int) -> int:
        """Largest uniform batch at ``context`` that ``admits`` holds."""
        def fits(n: int) -> bool:
            return self.admits(config, [context] * n)

        if not fits(1):
            return 0
        low, high = 1, 2
        while fits(high):
            low, high = high, 2 * high
        while high - low > 1:  # fits(low) and not fits(high)
            mid = (low + high) // 2
            if fits(mid):
                low = mid
            else:
                high = mid
        return low


class DenseGpuSystem(ServingSystem):
    """1..N GPUs running full dense attention, data-parallel across users.

    Data parallelism duplicates weights on every GPU but introduces no
    communication (Section 8.2); the GPU that the greedy placement loads
    slowest sets the token latency.
    """

    def __init__(self, n_gpus: int = 1, spec: GpuSpec = H100) -> None:
        if n_gpus < 1:
            raise ValueError("need at least one GPU")
        self.n_gpus = n_gpus
        self.gpu = GpuModel(spec)

    @property
    def name(self) -> str:
        return f"{self.n_gpus}-GPU"

    def gpu_resident_tokens(self, context: int) -> int:
        """KV tokens one user keeps in HBM (and attends over)."""
        return context

    def _attention_ns(self, config: ModelConfig, context: int) -> float:
        """One user's decode attention, one layer."""
        return self.gpu.dense_attention_ns(
            config, 1, self.gpu_resident_tokens(context))

    def _place(self, config: ModelConfig,
               contexts: Sequence[int]) -> Tuple[List[int], List[int]]:
        """Greedy placement: (free HBM bytes per GPU, GPU of each user).

        Largest KV cache first, each onto the GPU with the most free HBM
        (ties to the lower index).  A GPU may end below zero: the batch
        then does not fit.
        """
        need = [self.gpu_resident_tokens(c) * config.kv_bytes_per_token()
                for c in contexts]
        free = [self.gpu.spec.usable_bytes
                - self.gpu.weight_bytes(config)] * self.n_gpus
        where = [0] * len(contexts)
        for user in sorted(range(len(contexts)), key=lambda u: -need[u]):
            gpu = max(range(self.n_gpus), key=free.__getitem__)
            free[gpu] -= need[user]
            where[user] = gpu
        return free, where

    def admits(self, config: ModelConfig, contexts: Sequence[int]) -> bool:
        """Do these per-user KV caches fit, placed greedily?"""
        free, _ = self._place(config, contexts)
        return min(free) >= 0

    def _step(self, config, contexts, degraded=None):
        _, where = self._place(config, contexts)
        n_layers = config.n_layers
        slowest = None
        for gpu in range(self.n_gpus):
            # Each GPU sums its users in the caller's order.
            users = [c for c, g in zip(contexts, where) if g == gpu]
            gemm = self.gpu.weight_gemm_ns(config, len(users)) * n_layers
            attn = sum(self._attention_ns(config, c)
                       for c in users) * n_layers
            head = self.gpu.lm_head_ns(config, len(users))
            overhead = self.gpu.spec.kernel_overhead_ns * n_layers
            total = gemm + attn + head + overhead
            if slowest is None or total > slowest[0]:
                slowest = (total, gemm, attn, head, overhead)
        total, gemm, attn, head, overhead = slowest
        return total * 1e-9, {
            "gemm_s": gemm * 1e-9,
            "attention_s": attn * 1e-9,
            "lm_head_s": head * 1e-9,
            "overhead_s": overhead * 1e-9,
        }


class AttAccSystem(DenseGpuSystem):
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

    name = "AttAcc"

    def __init__(self, spec: GpuSpec = H100) -> None:
        super().__init__(1, spec)
        self.pim_bandwidth = spec.hbm_bandwidth * self.PIM_BANDWIDTH_SCALE

    def _attention_ns(self, config: ModelConfig, context: int) -> float:
        return self.gpu.dense_attention_ns(
            config, 1, context, bandwidth_override=self.pim_bandwidth)


class SlidingWindowGpuSystem(DenseGpuSystem):
    """Sliding-window attention on one GPU (Figure 10's software baseline).

    Attention cost covers only sinks + window; the KV cache can be evicted
    beyond the window, so capacity is bounded by the window, not the
    context.
    """

    def __init__(self, window: int = 1024, n_sink: int = 16,
                 spec: GpuSpec = H100) -> None:
        super().__init__(1, spec)
        self.window = window
        self.n_sink = n_sink

    @property
    def name(self) -> str:
        return f"SlidingWindow(W={self.window})"

    def gpu_resident_tokens(self, context: int) -> int:
        return min(context, self.window + self.n_sink)
