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
no injector draw, no degraded token.  With ``FaultPlan.total_failure()``
every sparse-eligible token falls back to the dense path and generation
still completes — the correctness anchor that FlashAttention-style dense
kernels provide real sparse systems.
"""

from __future__ import annotations

import dataclasses
from typing import Optional

import numpy as np

from repro.drex.descriptors import RequestDescriptor, ResponseDescriptor
from repro.errors import CorruptedKsoError, OffloadTimeoutError, QueueFullError
from repro.obs import Obs, resolve_obs


@dataclasses.dataclass(frozen=True)
class SupervisorPolicy:
    """Retry/timeout/repair policy for supervised offloads."""

    #: additional attempts after the first failure (0 = degrade immediately).
    max_retries: int = 3
    #: backoff before retry ``i`` is ``base * multiplier**i``, jittered.
    base_backoff_ns: float = 2_000.0
    backoff_multiplier: float = 2.0
    #: uniform jitter fraction: each backoff is scaled by ``1 +/- jitter``.
    jitter: float = 0.25
    #: per-request budget on the simulated device latency; a completed
    #: offload slower than this counts as timed out (None disables).
    timeout_ns: Optional[float] = 10e6

    def __post_init__(self) -> None:
        if self.max_retries < 0:
            raise ValueError("max_retries must be >= 0")
        if self.base_backoff_ns < 0.0:
            raise ValueError("base_backoff_ns must be >= 0")
        if self.backoff_multiplier < 1.0:
            raise ValueError("backoff_multiplier must be >= 1")
        if not 0.0 <= self.jitter < 1.0:
            raise ValueError("jitter must be in [0, 1)")
        if self.timeout_ns is not None and self.timeout_ns <= 0.0:
            # A zero budget times out every offload: every token degrades.
            raise ValueError("timeout_ns must be > 0 (or None)")


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

    def __init__(self, device, policy: Optional[SupervisorPolicy] = None,
                 seed: int = 0, obs: Optional[Obs] = None) -> None:
        self.device = device
        self.policy = policy or SupervisorPolicy()
        #: jitter stream, independent of the injector's fault stream so the
        #: two never perturb each other's determinism.
        self.rng = np.random.default_rng(seed)
        self.stats = SupervisorStats()
        self.obs = resolve_obs(obs)

    def _bump(self, name: str, amount=1) -> None:
        """Mirror a :class:`SupervisorStats` increment into the registry."""
        metrics = self.obs.metrics
        if metrics.enabled:
            metrics.counter("offload." + name).inc(amount)

    # -- internals ---------------------------------------------------------------

    def _check_kso(self, request: RequestDescriptor) -> None:
        """Verify and repair the request's sign stores; raise on taint."""
        bad = self.device.corrupted_ksos(request.uid, request.layer)
        if not bad:
            return
        self.stats.corrupted_heads += len(bad)
        self._bump("corrupted_heads", len(bad))
        for kv_head in bad:
            self.device.repack_kso(request.uid, request.layer, kv_head)
        self.stats.repairs += len(bad)
        self._bump("repairs", len(bad))
        raise CorruptedKsoError(
            f"KSO checksum failed for uid={request.uid} "
            f"layer={request.layer} kv_heads={bad} "
            "(repaired from Key Objects)")

    def _attempt(self, request: RequestDescriptor) -> ResponseDescriptor:
        """One supervised attempt: execute, verify integrity, check budget."""
        response = self.device.execute(request)
        # Corruption may have landed during this very offload; a tainted
        # sign store means the returned top-k cannot be trusted.
        self._check_kso(request)
        timeout = self.policy.timeout_ns
        if timeout is not None and response.latency is not None \
                and response.latency.total_ns > timeout:
            raise OffloadTimeoutError(
                f"offload exceeded per-request budget: "
                f"{response.latency.total_ns:.0f} ns > {timeout:.0f} ns")
        return response

    def _backoff(self, attempt: int) -> float:
        policy = self.policy
        delay = policy.base_backoff_ns * policy.backoff_multiplier ** attempt
        if policy.jitter > 0.0:
            delay *= 1.0 + policy.jitter * (2.0 * self.rng.random() - 1.0)
        return delay

    # -- public API --------------------------------------------------------------

    def execute(self, request: RequestDescriptor
                ) -> Optional[ResponseDescriptor]:
        """Run one offload under supervision.

        Returns the response, with accumulated retry backoff charged to its
        ``latency.queue_ns``, or ``None`` once the retry budget is spent —
        the caller's signal to degrade this token to the dense path.
        """
        backoff_total = 0.0
        for attempt in range(self.policy.max_retries + 1):
            self.stats.attempts += 1
            self._bump("attempts")
            try:
                response = self._attempt(request)
            except OffloadTimeoutError:
                self.stats.timeouts += 1  # injected stall or budget overrun
                self._bump("timeouts")
            except QueueFullError:
                self.stats.queue_full += 1
                self._bump("queue_full")
            except CorruptedKsoError:
                pass  # counted (and repaired) in _check_kso
            else:
                self.stats.succeeded += 1
                self._bump("succeeded")
                if backoff_total > 0.0 and response.latency is not None:
                    response.latency.queue_ns += backoff_total
                return response
            if attempt < self.policy.max_retries:
                self.stats.retries += 1
                self._bump("retries")
                delay = self._backoff(attempt)
                backoff_total += delay
                self.stats.backoff_ns += delay
                self._bump("backoff_ns", delay)
        self.stats.degraded += 1
        self._bump("degraded")
        return None

    def flush_allowed(self) -> bool:
        """Gate for staged KV flushes (allocator capacity pressure).

        A blocked flush is not an error: tokens stay staged in the HBM
        window (attended densely) until pressure clears on a later step.
        """
        if self.device.injector.fires("capacity_pressure"):
            self.stats.flush_deferrals += 1
            self._bump("flush_deferrals")
            return False
        return True
