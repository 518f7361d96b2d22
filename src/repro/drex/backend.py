"""The GPU side of hybrid attention: the kernel, offloading to DReX.

:class:`DrexOffloadBackend` *is* the kernel — a
:class:`~repro.core.hybrid.LongSightAttention` whose every output row is
the software kernel's — driven the way Section 6 drives DReX.  The dense
window doubles as the staging buffer: a token is written to the session's
own :class:`~repro.drex.device.DrexDevice` (by count; the device holds no
data) as it leaves the window.  Per (layer, token) the backend asks the
device's :class:`~repro.drex.supervisor.OffloadSupervisor` whether the
flush may proceed (capacity pressure defers it) and then to execute the
offload, which the device prices from the kernel's own stage-1 survivors
(``survivor_capture``).  The answers decide the config a row is served
at, always by the kernel:

- offloaded: this config — sinks + window dense, sparse over
  ``[n_sink, p - window + 1)``;
- flush deferred: the staged tokens stay dense — the kernel at ``window =
  p - flushed + 1``, sparse over ``[n_sink, flushed)``;
- degraded (the retry budget spent): the dense floor at that window,
  ``top_k = 0``, recorded in ``degraded_log``.

Faults are keyed by site, so a block's flushes are decided before it
runs: each run of rows at one window is one kernel block over the context
ending at its last row, and a degraded row is rerun at the floor.  With
``FaultPlan.none()`` nothing fires and every row is offloaded, so the
output is bit-identical to ``LongSightAttention``'s
(``tests/drex/test_backend.py``).  ``stats`` count every sparse row the
kernel runs, a degraded row's included.  At ``top_k = 0`` there is
nothing to retrieve: the backend is the plain kernel and never offloads.

Each backend owns its device, so it keeps the protocol's default
``stack_key`` (itself) and batch call (a loop over its rows).  Its
``with_config`` variants (the serving quality ladder) share the device,
the supervisor and the flush watermarks; at ``top_k = 0`` a variant is the
plain kernel.
"""

from __future__ import annotations

import copy
import dataclasses
import itertools
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.core.config import LongSightConfig
from repro.core.hybrid import LongSightAttention
from repro.core.itq import ItqRotations
from repro.core.metrics import FilterStats
from repro.drex.descriptors import RequestDescriptor
from repro.drex.device import DrexDevice
from repro.drex.supervisor import OffloadSupervisor, SupervisorStats
from repro.drex.timing import LatencyBreakdown
from repro.faults import FaultPlan
from repro.llm.config import ModelConfig
from repro.llm.kv_cache import KVCache
from repro.llm.model import AttentionBackend

#: The backend owns its device, so its one session is user 0.
_UID = 0


@dataclasses.dataclass
class _Session:
    """Offload state a backend shares with its ``with_config`` variants."""

    #: tokens written to DReX, per layer (every KV head in lockstep)
    flushed: Dict[int, int] = dataclasses.field(default_factory=dict)
    latency: LatencyBreakdown = dataclasses.field(
        default_factory=LatencyBreakdown)
    degraded_log: List[Tuple[int, int]] = dataclasses.field(
        default_factory=list)


class _Prefix:
    """The first ``n`` positions of one layer of a cache, read as a cache
    (the context a row of a block had when it was the last)."""

    window_view = KVCache.window_view        # reads ``layers[layer]`` only

    def __init__(self, cache, layer: int, n: int) -> None:
        kv = copy.copy(cache.layers[layer])
        kv._len = n
        self.layers = {layer: kv}
        self.sign_cache_enabled = cache.sign_cache_enabled
        self.sign_rotations = cache.sign_rotations


def _context(cache, layer: int, n: int):
    """``cache`` as the context of its row at position ``n - 1``."""
    return cache if len(cache.layers[layer]) == n \
        else _Prefix(cache, layer, n)


class DrexOffloadBackend(LongSightAttention):
    """The kernel, offloading its sparse phase to its own DReX device
    under supervision (see the module docstring)."""

    def __init__(self, model_config: ModelConfig, config: LongSightConfig,
                 rotations: Optional[ItqRotations] = None,
                 plan: Optional[FaultPlan] = None,
                 stats: Optional[FilterStats] = None) -> None:
        super().__init__(config, rotations=rotations, stats=stats)
        self.model_config = model_config
        self.device = DrexDevice(
            n_layers=model_config.n_layers,
            n_kv_heads=model_config.n_kv_heads,
            n_q_heads=model_config.n_q_heads,
            head_dim=model_config.head_dim,
            dtype_bytes=model_config.dtype_bytes,
            plan=plan,
        )
        self.device.register_user(_UID)
        self.supervisor = OffloadSupervisor(self.device)
        self._session = _Session()
        #: dense floor? -> the kernel serving rows at this config's window
        self._kernels: Dict[bool, LongSightAttention] = {}

    @property
    def total_latency(self) -> LatencyBreakdown:
        """Accumulated offload latency across the run."""
        return self._session.latency

    @property
    def degraded_log(self) -> List[Tuple[int, int]]:
        """(layer, position) of every token degraded to the dense floor."""
        return self._session.degraded_log

    def with_config(self, config: LongSightConfig) -> LongSightAttention:
        """A quality-ladder variant: at ``top_k = 0`` the plain kernel (the
        dense floor), otherwise an offload backend at ``config`` sharing
        this one's device, supervisor and flush watermarks, so its tokens
        flush, fault and are priced as this session's."""
        if not config.top_k:
            return super().with_config(config)
        variant = copy.copy(self)
        variant.config, variant._kernels = config, {}
        variant.stats = variant.selection_capture = None
        return variant

    # -- attention ------------------------------------------------------------

    # Each backend owns its device: it stacks only with itself, and its
    # batch call serves its rows one by one.
    stack_key = AttentionBackend.stack_key
    forward_cached_batch = AttentionBackend.forward_cached_batch

    def _kernel(self, window: int, floor: bool = False) -> LongSightAttention:
        """The plain kernel at this config with ``window``, at ``top_k = 0``
        if ``floor``: memoised at this config's window, built for its one
        call at a deferred flush's wider one (which grows every token)."""
        own = window == self.config.window
        kernel = self._kernels.get(floor) if own else None
        if kernel is None:
            config = self.config if own \
                else self.config.replace(window=window)
            kernel = LongSightAttention(
                config.replace(top_k=0) if floor else config,
                rotations=self.rotations, obs=self.obs)
            if own:
                self._kernels[floor] = kernel
        kernel.stats = self.stats
        kernel.selection_capture = self.selection_capture
        return kernel

    def _run(self, kernel: LongSightAttention, layer: int, q: np.ndarray,
             cache) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``kernel`` over the rows of ``q`` (the last rows of ``cache``).

        Returns the output, each query head's passes per row ``(n_q_heads,
        rows)`` and per KV head and row which span columns any head of its
        group passed ``(n_kv_heads, rows, span)`` — the offloads' prices.
        """
        kernel.survivor_capture = capture = []
        try:
            out = kernel.forward_cached(layer, q, cache)
        finally:
            kernel.survivor_capture = None
        n_q_heads, n_rows, _ = q.shape
        n_kv_heads = self.model_config.n_kv_heads
        group = n_q_heads // n_kv_heads
        passed = np.zeros((n_q_heads, n_rows), dtype=np.int64)
        union = np.zeros((n_kv_heads, n_rows,
                          capture[0][2].shape[-1] if capture else 0),
                         dtype=bool)
        for h0, passes, rows in capture:
            passed[h0:h0 + len(passes)] = passes
            union[h0 // group] |= rows
        return out, passed, union

    def forward_cached(self, layer: int, q: np.ndarray,
                       cache: KVCache) -> np.ndarray:
        cfg = self.config
        if not cfg.top_k:
            return self._kernel(cfg.window).forward_cached(layer, q, cache)
        n_new = q.shape[1]
        first = len(cache.layers[layer]) - n_new
        # Each row's flush watermark, every deferral decided (and counted)
        # before anything runs or is written: at row p the tokens older
        # than the window are flushed unless capacity pressure defers it,
        # and a deferred row keeps the staged tokens dense, widening its
        # window.
        flushed = self._session.flushed.get(layer, cfg.n_sink)
        marks, windows = [], []
        for p in range(first, first + n_new):
            eligible = max(cfg.n_sink, p - cfg.window + 1)
            if eligible > flushed and self.supervisor.flush_allowed(layer, p):
                flushed = eligible
            marks.append(flushed)
            windows.append(max(cfg.window, p - flushed + 1))
        out = np.empty_like(q)
        prices = []           # per row: its passes and survivors
        end = 0               # one block per run of rows at one window
        for window, rows in itertools.groupby(windows):
            t, end = end, end + len(list(rows))
            out[:, t:end], passed, union = self._run(
                self._kernel(window), layer, q[:, t:end],
                _context(cache, layer, first + end))
            prices += zip(passed.T, union.transpose(1, 0, 2))
        # Flush writes, offloads and degradations in row order: each
        # offload is priced against the slice chain its row sees.
        flushed = self._session.flushed.get(layer, cfg.n_sink)
        for t, mark in enumerate(marks):
            if mark > flushed:
                for kv_head in range(self.model_config.n_kv_heads):
                    self.device.write_kv(_UID, layer, kv_head,
                                         mark - flushed)
                flushed = self._session.flushed[layer] = mark
            if mark == cfg.n_sink:
                continue                    # nothing in DReX yet
            passed, union = prices[t]
            p = first + t
            response = self.supervisor.execute(RequestDescriptor(
                uid=_UID, layer=layer, queries=q[:, t], position=p,
                top_k=cfg.top_k, dtype_bytes=self.model_config.dtype_bytes,
                passed=passed, survivors=union[:, :mark - cfg.n_sink]))
            if response is None:
                # Offload failed past the retry budget: this token falls
                # back to the dense floor, recorded here (never silently).
                floor = self._kernel(windows[t], floor=True)
                out[:, t] = floor.forward_cached(
                    layer, q[:, t:t + 1], _context(cache, layer, p + 1))[:, 0]
                self.degraded_log.append((layer, p))
            else:
                self._session.latency = self._session.latency \
                    + response.latency
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
        bit-identically (see :mod:`repro.durable`): the fault and
        supervisor telemetry, the accumulated latency, the degradation
        record, the per-layer flush watermarks and any KSO bit flips not
        yet repaired.  Faults are keyed by site and the device holds no
        data, so that is all of it."""
        return {
            "injector_counts": dict(self.device.injector.counts),
            "supervisor_stats": self.supervisor.stats.as_dict(),
            "total_latency": dataclasses.asdict(self.total_latency),
            "degraded_log": [[int(layer), int(pos)]
                             for layer, pos in self.degraded_log],
            "flushed": [[int(layer), int(n)] for layer, n
                        in sorted(self._session.flushed.items())],
            "kso_flipped": [[int(layer), int(kv_head), sorted(bits)]
                            for (_, layer, kv_head), bits
                            in sorted(self.device.flipped.items())],
        }

    def restore_durable_state(self, state: dict) -> None:
        """Inverse of :meth:`durable_state` on a freshly built backend."""
        self.device.injector.counts = {
            k: int(v) for k, v in state["injector_counts"].items()}
        self.supervisor.stats = SupervisorStats(**state["supervisor_stats"])
        self._session.latency = LatencyBreakdown(**state["total_latency"])
        self._session.degraded_log[:] = [
            (int(layer), int(pos)) for layer, pos in state["degraded_log"]]
        for layer, n in state["flushed"]:
            self._session.flushed[int(layer)] = int(n)
            for kv_head in range(self.model_config.n_kv_heads):
                self.device.write_kv(_UID, int(layer), kv_head,
                                     int(n) - self.config.n_sink)
        self.device.flipped = {
            (_UID, int(layer), int(kv_head)): frozenset(map(int, bits))
            for layer, kv_head, bits in state["kso_flipped"]}
