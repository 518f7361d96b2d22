"""End-to-end functional integration: the GPU side of hybrid attention.

:class:`DrexOffloadBackend` implements the transformer substrate's
attention-backend protocol by actually driving a :class:`DrexDevice`
(Section 6's execution model):

- KV pairs are *staged* in HBM (the dense window doubles as the staging
  buffer) and flushed to DReX in groups of 128 once they leave the window —
  "off the critical path" batching of updates.
- Each attention call submits a Request Descriptor per layer, performs the
  dense sink+window attention locally, then merges the returned top-k
  scores/values in a single softmax (Figure 2b steps 5–7).

Every offload and staged flush runs through an
:class:`~repro.system.supervisor.OffloadSupervisor` against the device's
own seeded :class:`~repro.system.faults.FaultPlan`: a flush under
capacity pressure is deferred (the tokens stay staged and are attended
densely), and an offload that still fails after the retry budget degrades
its token to the dense region only, recorded in ``degraded_log``.  The
default healthy plan fires nothing, so no token degrades.

With ``flush_granularity=1`` and no faults the result equals the pure
software backend :class:`repro.core.hybrid.LongSightAttention` to float
round-off (1e-12, ``tests/drex/test_backend.py``) — the integration test
that pins the device model to the algorithm.  It is not bit-identical:
this backend scores one query head at a time (its own BLAS call shapes)
and merges the device's top-k in the device's order, so its sums round
differently.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.core.config import LongSightConfig
from repro.core.itq import ItqRotations
from repro.core.metrics import FilterStats
from repro.drex.descriptors import RequestDescriptor
from repro.drex.device import DrexDevice
from repro.drex.timing import LatencyBreakdown
from repro.llm.config import ModelConfig
from repro.llm.ops import softmax
from repro.system.faults import FaultPlan
from repro.system.supervisor import (OffloadSupervisor, SupervisorPolicy,
                                     SupervisorStats)

#: The backend owns its device, so its one session is user 0.
_UID = 0


class DrexOffloadBackend:
    """Attention backend that offloads the sparse phase to its own DReX
    device, under supervision (see the module docstring)."""

    def __init__(self, model_config: ModelConfig, config: LongSightConfig,
                 rotations: Optional[ItqRotations] = None,
                 plan: Optional[FaultPlan] = None,
                 policy: Optional[SupervisorPolicy] = None,
                 flush_granularity: int = 128,
                 stats: Optional[FilterStats] = None,
                 supervisor_seed: int = 0) -> None:
        if config.use_itq and rotations is None:
            raise ValueError("use_itq requires rotations")
        self.model_config = model_config
        self.config = config
        self.flush_granularity = max(1, flush_granularity)
        self.device = DrexDevice(
            n_layers=model_config.n_layers,
            n_kv_heads=model_config.n_kv_heads,
            n_q_heads=model_config.n_q_heads,
            head_dim=model_config.head_dim,
            thresholds=config.thresholds,
            rotations=rotations if config.use_itq else None,
            dtype_bytes=model_config.dtype_bytes,
            plan=plan,
        )
        self.device.stats = stats
        self.device.register_user(_UID)
        self.supervisor = OffloadSupervisor(self.device, policy,
                                            seed=supervisor_seed)
        #: tokens already written to DReX, per layer (every KV head of a
        #: layer is flushed in lockstep)
        self._flushed: Dict[int, int] = {}
        #: accumulated offload latency across the run
        self.total_latency = LatencyBreakdown()
        #: (layer, position) of every token degraded to dense-only
        self.degraded_log: List[Tuple[int, int]] = []
        #: when set to a dict, every offloaded token records its selected
        #: global key positions per query head as ``(layer, pos, head)`` —
        #: the device-path analogue of
        #: :attr:`repro.core.hybrid.LongSightAttention.selection_capture`.
        self.selection_capture: Optional[Dict[Tuple[int, int, int],
                                              np.ndarray]] = None

    # -- staging -----------------------------------------------------------------

    def _flush(self, layer: int, k: np.ndarray, v: np.ndarray,
               upto: int) -> int:
        """Write eligible KV pairs (position < ``upto``) to DReX in groups.

        The supervisor gates each flush once, so all KV heads stay in
        lockstep; a deferred flush leaves the tokens staged.  Returns the
        per-layer flushed count (uniform across KV heads).
        """
        cfg = self.config
        flushed = self._flushed.get(layer, cfg.n_sink)
        target = max(flushed, upto)
        # Flush whole groups; the remainder stays staged in the HBM window.
        n_new = (target - flushed) // self.flush_granularity \
            * self.flush_granularity
        if n_new > 0 and self.supervisor.flush_allowed():
            for kv_head in range(self.model_config.n_kv_heads):
                self.device.write_kv(
                    _UID, layer, kv_head,
                    k[kv_head, flushed : flushed + n_new],
                    v[kv_head, flushed : flushed + n_new])
            flushed += n_new
        self._flushed[layer] = flushed
        return flushed

    # -- attention ------------------------------------------------------------------

    def forward(self, layer: int, q: np.ndarray, k: np.ndarray,
                v: np.ndarray) -> np.ndarray:
        cfg = self.config
        mc = self.model_config
        n_q_heads, n_new, head_dim = q.shape
        n_kv_heads, n_ctx, _ = k.shape
        group = n_q_heads // n_kv_heads
        scale = 1.0 / np.sqrt(head_dim)
        out = np.empty_like(q)
        for t in range(n_new):
            p = n_ctx - n_new + t
            # Tokens strictly older than the window are eligible for DReX.
            eligible_upto = max(cfg.n_sink, p - cfg.window + 1)
            flushed = self._flush(layer, k, v, eligible_upto)
            sparse_available = flushed > cfg.n_sink
            if sparse_available:
                request = RequestDescriptor(
                    uid=_UID, layer=layer, queries=q[:, t, :],
                    top_k=cfg.top_k, dtype_bytes=mc.dtype_bytes)
                response = self.supervisor.execute(request)
                if response is None:
                    # Offload failed past the retry budget: this token falls
                    # back to the dense sliding-window path, recorded here
                    # (never silently).
                    sparse_available = False
                    self.degraded_log.append((layer, p))
                else:
                    self.total_latency = self.total_latency + response.latency
                    if self.selection_capture is not None:
                        for h in range(n_q_heads):
                            # Store index i holds global position n_sink + i.
                            self.selection_capture[(layer, p, h)] = \
                                cfg.n_sink + response.heads[h].indices
            # Dense region: sinks + everything not yet flushed (window and
            # staging overhang), causally clipped.
            dense_positions = np.concatenate([
                np.arange(min(cfg.n_sink, p + 1)),
                np.arange(min(flushed, p + 1), p + 1),
            ])
            for kv_head in range(n_kv_heads):
                dense_k = k[kv_head, dense_positions]
                dense_v = v[kv_head, dense_positions]
                for g in range(group):
                    h = kv_head * group + g
                    dense_scores = (dense_k @ q[h, t]) * scale
                    if sparse_available:
                        result = response.heads[h]
                        sparse_scores = result.scores * scale
                        sparse_v = result.values
                        merged = np.concatenate([dense_scores, sparse_scores])
                        merged_v = np.concatenate([dense_v, sparse_v]) \
                            if sparse_v.size else dense_v
                        probs = softmax(merged)
                        out[h, t] = probs @ merged_v
                    else:
                        out[h, t] = softmax(dense_scores) @ dense_v
        return out

    # -- bookkeeping -----------------------------------------------------------------

    # Views of the supervisor's stats, which count one offload per sparse
    # token: succeeded (offloaded) or degraded (dense-only).

    @property
    def n_offloads(self) -> int:
        return self.supervisor.stats.succeeded

    @property
    def degraded_tokens(self) -> int:
        return self.supervisor.stats.degraded

    @property
    def sparse_token_attempts(self) -> int:
        return self.n_offloads + self.degraded_tokens

    @property
    def degraded_token_fraction(self) -> float:
        """Fraction of sparse-eligible tokens that fell back to dense-only."""
        if self.sparse_token_attempts == 0:
            return 0.0
        return self.degraded_tokens / self.sparse_token_attempts

    def mean_offload_latency(self) -> LatencyBreakdown:
        """Average per-offload latency breakdown so far."""
        if self.n_offloads == 0:
            return LatencyBreakdown()
        return LatencyBreakdown(*[
            getattr(self.total_latency, f.name) / self.n_offloads
            for f in dataclasses.fields(LatencyBreakdown)
        ])

    # -- durable serving hooks ---------------------------------------------------

    def durable_state(self) -> dict:
        """JSON-safe state a snapshot needs to resume this backend
        bit-identically (see :mod:`repro.durable`).

        Captures both seeded RNG streams (fault injector + supervisor
        jitter), their accumulated telemetry, and the degradation record.
        The device-side KV/sign stores are *not* captured: the restored
        backend's ``_flushed`` watermarks reset to ``n_sink``, and the
        next forward's catch-up flush rebuilds identical device content
        because the flush watermark is a pure function of the cache
        length.  Exactness preconditions: ``capacity_pressure_rate == 0``
        (deferred flushes would desync the watermark) and no unrepaired
        KSO corruption outstanding at the crash.
        """
        injector = self.device.injector
        supervisor = self.supervisor
        return {
            "injector_rng": injector.rng.bit_generator.state,
            "injector_counts": dict(injector.counts),
            "supervisor_rng": supervisor.rng.bit_generator.state,
            "supervisor_stats": supervisor.stats.as_dict(),
            "total_latency": dataclasses.asdict(self.total_latency),
            "degraded_log": [[int(layer), int(pos)]
                             for layer, pos in self.degraded_log],
        }

    def restore_durable_state(self, state: dict) -> None:
        """Inverse of :meth:`durable_state` on a freshly built backend."""
        injector = self.device.injector
        supervisor = self.supervisor
        injector.rng.bit_generator.state = state["injector_rng"]
        injector.counts = {k: int(v)
                           for k, v in state["injector_counts"].items()}
        supervisor.rng.bit_generator.state = state["supervisor_rng"]
        supervisor.stats = SupervisorStats(**state["supervisor_stats"])
        self.total_latency = LatencyBreakdown(**state["total_latency"])
        self.degraded_log = [(int(layer), int(pos))
                             for layer, pos in state["degraded_log"]]
