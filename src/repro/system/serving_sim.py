"""Multi-tenant serving simulation.

Section 4 emphasizes that LongSight's KV "vector database" is unusually
*dynamic*: per-user databases are created at prefill, grow every decode
step, and disappear when the session ends.  This simulator exercises that
dynamic regime end to end: requests arrive over time with long prompts,
are admitted when capacity allows (DReX bytes + HBM + DCC queue for
LongSight; HBM only for GPU baselines), decode in synchronized batches
with *heterogeneous* context lengths, and release capacity on completion.

It speaks the functional serving layer's vocabulary without decoding a
token: it runs :class:`~repro.serve.scheduler.ServeRequest`s, charges
every step through the engine's own
:class:`~repro.serve.engine.AnalyticTiming`, and returns a
:class:`~repro.serve.events.ServeReport` — so TTFT / TPOT, availability
and the queueing means are the report's reductions, and the two layers
differ only in their loops: admission here is ``system.admits`` over the
charged contexts (the engine's is pool blocks), prefill overlaps decode
from the moment of admission (the engine's is chunked), and faults are
per-step draws with backoff (the engine's come from its backends).
"""

from __future__ import annotations

import bisect
import dataclasses
from typing import List, Optional, Protocol, Sequence

import numpy as np

from repro.llm.config import ModelConfig
from repro.serve.engine import AnalyticTiming
from repro.serve.events import ServeReport
from repro.serve.scheduler import ServeRequest


class ServingSystem(Protocol):
    """What the simulator needs from a system model."""

    name: str

    def admits(self, config: ModelConfig, contexts: Sequence[int]) -> bool:
        ...

    def step_latency_s(self, config: ModelConfig,
                       contexts: Sequence[int]) -> float:
        ...


@dataclasses.dataclass(frozen=True)
class ServingFaultModel:
    """Request-level offload-failure dynamics for the simulator.

    Each decode step, every decoding request independently fails its
    offload with ``offload_failure_rate`` (one seeded draw per request per
    step, in deterministic batch order).  A failed step still generates a
    token — via the dense sliding-window fallback — but counts as degraded.
    After ``failures_to_backoff`` *consecutive* failures the request backs
    off, recorded as a recompute preemption with a delay: it leaves the
    batch, releases its capacity, and re-enters the admission queue
    ``backoff_s`` later.  The backoff that exceeds ``max_backoffs`` (also
    counted) instead *sheds it from the offload path*: it stays in the
    batch pinned to the dense sliding-window fallback and still decodes to
    completion — generation is never dropped, only degraded (and the
    shedding is reported, never silent).
    """

    offload_failure_rate: float = 0.0
    failures_to_backoff: int = 4
    backoff_s: float = 0.5
    max_backoffs: int = 3
    seed: int = 0

    def __post_init__(self) -> None:
        if not 0.0 <= self.offload_failure_rate <= 1.0:
            raise ValueError("offload_failure_rate must be in [0, 1]")
        if self.failures_to_backoff < 1:
            raise ValueError("failures_to_backoff must be >= 1")
        if self.backoff_s < 0.0 or self.max_backoffs < 0:
            raise ValueError("backoff_s and max_backoffs must be >= 0")

    @property
    def any_faults(self) -> bool:
        return self.offload_failure_rate > 0.0


def _queue_key(request: ServeRequest):
    return request.arrival_s, request.request_id


class ServingSimulator:
    """Batch-synchronous decode with admission control and departures.

    The simulator reads only a request's arrival, charged prompt length
    and output budget — never its prompt ids, so a token-free trace and
    one carrying ids simulate identically.  Every decoded token appends
    one placeholder id to ``outputs``, which keeps
    :attr:`~repro.serve.scheduler.ServeRequest.charged_context` the one
    definition of the context the timing model is charged for.  Per-request
    outcomes land where the engine puts them: ``events`` (admission,
    token and finish stamps at the step's clock, degraded tokens,
    backoffs as ``preemptions``, ``shed``, ``rejected`` for an impossible
    fit), ``consecutive_degraded`` and ``pinned_dense``.  A backoff moves
    ``request.arrival_s`` to its re-entry time while ``events.arrival_s``
    keeps the original.

    Args:
        timing: the :class:`~repro.serve.engine.AnalyticTiming` the
            functional engine takes (system, paper-scale model config,
            optional ``PrefillModel``, obs) over a
            :class:`ServingSystem`.  A step costs its
            ``decode_step_s`` — the degraded-step choice included — and
            an admitted request occupies capacity at once but joins the
            decode batch ``prefill_chunk_s(0, charged prompt)`` later
            (prefill throughput is orders of magnitude above decode,
            Section 8.1.2, so it is modeled as overlapping the ongoing
            decode).  Step-latency percentiles come from its
            ``timing.decode_step_s`` histogram, restarted sample-retaining
            per run, so they need an enabled metrics registry.
        max_steps: loop bound; exhausting it with requests still live
            raises ``RuntimeError`` rather than returning a truncated
            report.
        faults: optional :class:`ServingFaultModel`; when given with a
            nonzero failure rate, requests experience offload failures per
            the model (degraded tokens, backoff + re-admission, shedding).
    """

    def __init__(self, timing: AnalyticTiming, max_steps: int = 1_000_000,
                 faults: Optional[ServingFaultModel] = None) -> None:
        self.timing = timing
        self.max_steps = max_steps
        self.faults = faults

    def _fits(self, contexts: List[int]) -> bool:
        return self.timing.system.admits(self.timing.model_config, contexts)

    def _try_admit(self, waiting: List[ServeRequest],
                   active: List[ServeRequest], now: float) -> None:
        """FIFO admission: admit the head of the queue while it fits."""
        while waiting and waiting[0].arrival_s <= now:
            candidate = waiting[0]
            if not self._fits([r.charged_context
                               for r in active + [candidate]]):
                break
            if candidate.events.admitted_s is None:
                candidate.events.admitted_s = now
            prompt = candidate.charged_context - len(candidate.outputs)
            candidate.ready_s = now + self.timing.prefill_chunk_s(0, prompt)
            active.append(waiting.pop(0))

    def run(self, requests: Sequence[ServeRequest]) -> ServeReport:
        """Simulate until every request completes or is rejected."""
        waiting = []
        for request in sorted(requests, key=_queue_key):
            if self._fits([request.charged_context
                           + request.max_new_tokens]):
                waiting.append(request)
            else:
                # Cannot be admitted even alone: the scheduler's
                # impossible-fit rejection.
                request.events.rejected = request.events.shed = True
        faults = self.faults if self.faults is not None \
            and self.faults.any_faults else None
        fault_rng = np.random.default_rng(faults.seed) \
            if faults is not None else None
        steps = self.timing.step_histogram()
        active: List[ServeRequest] = []
        now = 0.0
        peak = 0
        for _ in range(self.max_steps):
            self._try_admit(waiting, active, now)
            if not active and not waiting:
                break
            decoding = [r for r in active if r.ready_s <= now]
            if not decoding:
                # Jump to the next event: the first readiness, or the
                # queue head's eligibility only if it is still ahead — a
                # head eligible now is blocked on capacity and waits for
                # the batch.
                pending = [r.ready_s for r in active]
                if waiting and waiting[0].arrival_s > now:
                    pending.append(waiting[0].arrival_s)
                now = min(pending)
                continue
            peak = max(peak, len(decoding))
            # One seeded draw per non-pinned decoding request, in batch
            # order, so the whole faulted trajectory is reproducible from
            # faults.seed.  Pinned requests are already dense-only.
            failed = [r.pinned_dense
                      or bool(fault_rng.random()
                              < faults.offload_failure_rate)
                      for r in decoding] if faults is not None else None
            now += self.timing.decode_step_s(
                [r.charged_context for r in decoding], failed)
            backed_off = []
            for i, request in enumerate(decoding):
                events = request.events
                request.outputs.append(0)  # placeholder id
                events.token_times_s.append(now)
                if events.first_token_s is None:
                    events.first_token_s = now
                if failed is not None:
                    if failed[i]:
                        events.degraded_tokens += 1
                        request.consecutive_degraded += 1
                    else:
                        request.consecutive_degraded = 0
                if len(request.outputs) >= request.max_new_tokens:
                    events.finished_s = now
                    events.shed = request.pinned_dense
                    active.remove(request)
                elif faults is not None and not request.pinned_dense \
                        and request.consecutive_degraded \
                        >= faults.failures_to_backoff:
                    backed_off.append(request)
            for request in backed_off:
                request.consecutive_degraded = 0
                request.events.preemptions += 1
                if request.events.preemptions > faults.max_backoffs:
                    # Shed from the offload path: the request stays in the
                    # batch pinned to the dense fallback and still finishes
                    # — reported in the outcome, never silently dropped.
                    request.pinned_dense = True
                else:
                    active.remove(request)
                    request.arrival_s = now + faults.backoff_s
                    bisect.insort(waiting, request, key=_queue_key)
        if active or waiting:
            raise RuntimeError(
                f"{self.timing.system.name}: {len(active) + len(waiting)} "
                f"requests still live after max_steps={self.max_steps}")
        events = [r.events for r in requests]
        return ServeReport(
            system=self.timing.system.name, events=events, clock_s=now,
            tokens_generated=sum(e.n_tokens for e in events),
            peak_decode_batch=peak,
            preemptions=sum(e.preemptions for e in events),
            pool_blocks=0, pool_high_watermark=0,
            step_hist=steps if steps.count else None)
