"""Degradation-aware supervision of the DReX offload path.

:class:`OffloadSupervisor` wraps a :class:`repro.drex.DrexDevice` the way
a production serving engine wraps an accelerator: bounded retries with
exponential backoff + jitter, a per-request timeout on the simulated
device latency, KSO checksum verification with repack-from-KV repair
(the device keeps each sign store's outstanding bit flips), and
— when the budget is exhausted — a recorded (never silent) degradation
signal that the caller turns into dense sliding-window-only attention.
Only the device's operational faults (:class:`QueueFullError`,
:class:`OffloadTimeoutError`, :class:`CorruptedKsoError`) are retried;
any other error is a programming error and propagates.

:class:`repro.drex.DrexOffloadBackend` runs every offload and staged
flush through one.  With ``FaultPlan.none()`` nothing fires: no retry,
no keyed draw, no degraded token.  With ``FaultPlan(cxl_timeout_rate=1.0)``
every sparse-eligible token falls back to the dense path and generation
still completes — the correctness anchor that FlashAttention-style dense
kernels provide real sparse systems.

Kept unreached: ``SupervisorStats.as_dict`` — durable offload; ROADMAP item
22 (one shared device per worker) makes it live.
"""

from __future__ import annotations

import dataclasses
from typing import Optional, Tuple

from repro.drex.descriptors import RequestDescriptor, ResponseDescriptor
from repro.errors import CorruptedKsoError, OffloadTimeoutError, QueueFullError
from repro.faults import site_rng


#: Additional attempts after an offload's first failure.
MAX_RETRIES = 3
#: The backoff before retry ``i`` is ``BASE_BACKOFF_NS *
#: BACKOFF_MULTIPLIER**i``, scaled by ``1 +/- JITTER`` drawn at the
#: attempt's site.
BASE_BACKOFF_NS = 2_000.0
BACKOFF_MULTIPLIER = 2.0
JITTER = 0.25
#: Per-request budget on the simulated device latency: a completed
#: offload slower than this counts as timed out.
TIMEOUT_NS = 10e6


@dataclasses.dataclass
class SupervisorStats:
    """Telemetry the supervisor accumulates across a run."""

    attempts: int = 0
    succeeded: int = 0
    retries: int = 0
    degraded: int = 0
    timeouts: int = 0
    queue_full: int = 0
    corrupted_heads: int = 0
    repairs: int = 0
    flush_deferrals: int = 0
    backoff_ns: float = 0.0

    def as_dict(self) -> dict:
        return dataclasses.asdict(self)


class OffloadSupervisor:
    """Retry / verify / repair / degrade wrapper around one device."""

    def __init__(self, device) -> None:
        self.device = device
        self.stats = SupervisorStats()

    # -- internals ---------------------------------------------------------------

    def _check_kso(self, request: RequestDescriptor) -> None:
        """Verify and repair the request's sign stores; raise on taint."""
        bad = self.device.corrupted_ksos(request.uid, request.layer)
        if not bad:
            return
        self.stats.corrupted_heads += len(bad)
        for kv_head in bad:
            self.device.repack_kso(request.uid, request.layer, kv_head)
        self.stats.repairs += len(bad)
        raise CorruptedKsoError(
            f"KSO checksum failed for uid={request.uid} "
            f"layer={request.layer} kv_heads={bad} "
            "(repaired from Key Objects)")

    def _attempt(self, request: RequestDescriptor,
                 site: Tuple[int, ...]) -> ResponseDescriptor:
        """One supervised attempt: execute, verify integrity, check budget."""
        response = self.device.execute(request, site)
        # Corruption may have landed during this very offload; a tainted
        # sign store means the returned top-k cannot be trusted.
        self._check_kso(request)
        if response.latency is not None \
                and response.latency.total_ns > TIMEOUT_NS:
            raise OffloadTimeoutError(
                f"offload exceeded per-request budget: "
                f"{response.latency.total_ns:.0f} ns > {TIMEOUT_NS:.0f} ns")
        return response

    def _backoff(self, attempt: int, site: Tuple[int, ...]) -> float:
        rng = site_rng(self.device.injector.plan, "backoff", site)
        return BASE_BACKOFF_NS * BACKOFF_MULTIPLIER ** attempt \
            * (1.0 + JITTER * (2.0 * rng.random() - 1.0))

    # -- public API --------------------------------------------------------------

    def execute(self, request: RequestDescriptor
                ) -> Optional[ResponseDescriptor]:
        """Run one offload under supervision.

        Returns the response, with accumulated retry backoff charged to its
        ``latency.queue_ns``, or ``None`` once the retry budget is spent —
        the caller's signal to degrade this token to the dense path.
        """
        backoff_total = 0.0
        for attempt in range(MAX_RETRIES + 1):
            site = (request.layer, request.position, attempt)
            self.stats.attempts += 1
            try:
                response = self._attempt(request, site)
            except OffloadTimeoutError:
                self.stats.timeouts += 1  # injected stall or budget overrun
            except QueueFullError:
                self.stats.queue_full += 1
            except CorruptedKsoError:
                pass  # counted (and repaired) in _check_kso
            else:
                self.stats.succeeded += 1
                if backoff_total > 0.0 and response.latency is not None:
                    response.latency.queue_ns += backoff_total
                return response
            if attempt < MAX_RETRIES:
                self.stats.retries += 1
                delay = self._backoff(attempt, site)
                backoff_total += delay
                self.stats.backoff_ns += delay
        self.stats.degraded += 1
        return None

    def flush_allowed(self, layer: int, position: int) -> bool:
        """Gate for the staged KV flush before row ``position`` of
        ``layer`` (allocator capacity pressure), decided at that site.

        A blocked flush is not an error: tokens stay staged in the HBM
        window (attended densely) until pressure clears on a later row.
        """
        if self.device.injector.fires("capacity_pressure",
                                      (layer, position)):
            self.stats.flush_deferrals += 1
            return False
        return True
