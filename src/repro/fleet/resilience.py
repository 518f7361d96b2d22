"""Fleet health: gray-failure detection and the worker suspicion model.

A crashed worker raises; a *gray* worker does something worse — it keeps
answering, just slowly, intermittently, or not at all, and a lockstep
dispatch loop that always waits for the laggard will happily wait on it
forever.  This module gives the router the three pieces it needs to stop
doing that:

- :class:`GrayFailurePlan` (in :mod:`repro.system.faults`) schedules
  deterministic gray failures.  Stalls are **simulated**, so they are
  router input rather than worker behaviour: the router's guarded step
  reads the plan at the worker's step count, adds the stall seconds to
  the latency it observed instead of sleeping (a stuck step — infinite
  stall — is not run at all: the wedge happens before the engine makes
  progress), so chaos tests are fast and bit-reproducible while driving
  the real detection path.
- :class:`HealthMonitor` classifies each worker HEALTHY / SUSPECT /
  FAILED from its observed step latencies: a **phi-accrual-style
  suspicion score** (phi = -log10 of the survival probability of the
  observed latency under a normal model of the worker's recent healthy
  samples, kept in a ``repro.obs`` ``fleet.step_latency_s`` histogram in
  the worker's own registry) plus a hard **step deadline** derived from
  the healthy p95 (factor + floor, or a fixed policy override).
- Verdict semantics the router enforces: a SUSPECT worker is *drained*
  (no new placements, stepped only as an occasional hedged probe so the
  healthy laggard always makes progress) and recovers to HEALTHY when
  its suspicion drops; a FAILED worker (consecutive deadline misses) is
  failed over — fence, rebuild from the durable snapshot + WAL, drain;
  recompute migration off the fenced run when there is nothing to
  rebuild from (see ``router._fail_worker``).

The deadline baseline is fed only with *within-deadline* samples: a
worker stalling at 2 s must not drag its own p95 — and therefore its own
deadline — up until the stall looks normal (the classic self-licking
feedback loop of naive adaptive timeouts).  Deadline-missing samples are
recorded separately (``fleet.step_latency_stalled_s``,
``fleet.step_deadline_miss``) so the merged fleet report still sees them.
"""

from __future__ import annotations

import dataclasses
import enum
import math
from typing import Dict, Optional, Tuple

from repro.obs import Histogram, MetricsRegistry, exact_percentile


class WorkerState(enum.Enum):
    HEALTHY = "healthy"
    SUSPECT = "suspect"
    FAILED = "failed"


@dataclasses.dataclass(frozen=True)
class HealthPolicy:
    """Knobs of the suspicion model and the bounded-wait guard.

    Attributes:
        window: healthy step-latency samples the normal model is fit
            over (sliding window of the most recent).
        min_samples: below this many healthy samples phi is 0 — a cold
            worker is given the benefit of the doubt (the deadline floor
            still guards against a wedge during warmup).
        suspect_phi: suspicion score at or above which a worker is
            classified SUSPECT (drained + hedge-probed, not failed).
        fail_phi: suspicion score at or above which an observation
            counts as a *strike* even without a deadline miss, provided
            the wait is material (>= half the deadline) — a fast worker
            can wedge relative to its own baseline long before the
            absolute deadline, but sub-deadline-scale spikes (snapshot
            fsync) must never accumulate into a failover.
        step_deadline_s: fixed per-step deadline override; ``None``
            derives it as ``max(deadline_floor_s, deadline_factor *
            healthy_p95)``.
        deadline_factor: multiplier on the healthy-window p95 latency.
        deadline_floor_s: minimum derived deadline — keeps warmup jitter
            and sub-millisecond tiny-model steps from tripping the guard.
        fail_after_deadline_misses: consecutive strikes (deadline misses
            or phi >= ``fail_phi``) that escalate SUSPECT to FAILED — a
            single strike only suspects, so one GC pause, snapshot
            fsync, or flap does not trigger a failover.
        probe_every: hedged-probe cadence — a SUSPECT worker is stepped
            once per this many router iterations, off the critical path.
    """

    window: int = 64
    min_samples: int = 8
    suspect_phi: float = 5.0
    fail_phi: float = 12.0
    step_deadline_s: Optional[float] = None
    deadline_factor: float = 20.0
    deadline_floor_s: float = 0.25
    fail_after_deadline_misses: int = 2
    probe_every: int = 4

    def __post_init__(self) -> None:
        if self.window < 2:
            raise ValueError("window must be >= 2")
        if self.min_samples < 2:
            raise ValueError("min_samples must be >= 2")
        if not 0.0 < self.suspect_phi <= self.fail_phi:
            raise ValueError("need 0 < suspect_phi <= fail_phi")
        if self.step_deadline_s is not None and self.step_deadline_s <= 0:
            raise ValueError("step_deadline_s must be > 0")
        if self.deadline_factor < 1.0:
            raise ValueError("deadline_factor must be >= 1")
        if self.deadline_floor_s <= 0.0:
            raise ValueError("deadline_floor_s must be > 0")
        if self.fail_after_deadline_misses < 1:
            raise ValueError("fail_after_deadline_misses must be >= 1")
        if self.probe_every < 1:
            raise ValueError("probe_every must be >= 1")


class WorkerHealth:
    """One worker's latency baseline and current verdict."""

    def __init__(self, worker_id: int, policy: HealthPolicy,
                 metrics: Optional[MetricsRegistry] = None) -> None:
        self.worker_id = worker_id
        self.policy = policy
        self.metrics = metrics
        self.state = WorkerState.HEALTHY
        self.deadline_misses = 0
        self.last_phi = 0.0
        # The healthy baseline lives in the worker's own registry so the
        # distribution survives into the merged fleet report.
        if metrics is not None and metrics.enabled:
            self.baseline = metrics.histogram("fleet.step_latency_s",
                                              track_values=True)
        else:
            self.baseline = Histogram("fleet.step_latency_s",
                                      track_values=True)

    # -- the suspicion score --------------------------------------------------

    def _window(self):
        values = self.baseline.values or []
        return values[-self.policy.window:]

    def phi(self, observed_s: float) -> float:
        """-log10 survival probability of ``observed_s`` under a normal
        model of the recent healthy window (phi-accrual style).

        The std floor is ``max(std, mean)``: tiny-model step times jitter
        multiplicatively (allocator, GC), so anything under ~5x the mean
        scores low and a simulated multi-second stall scores enormous.
        """
        samples = self._window()
        if len(samples) < self.policy.min_samples:
            return 0.0
        mean = sum(samples) / len(samples)
        var = sum((s - mean) ** 2 for s in samples) / len(samples)
        std = max(math.sqrt(var), mean, 1e-6)
        z = (observed_s - mean) / std
        if z <= 0.0:
            return 0.0
        survival = 0.5 * math.erfc(z / math.sqrt(2.0))
        return -math.log10(max(survival, 1e-300))

    def deadline_s(self) -> float:
        if self.policy.step_deadline_s is not None:
            return self.policy.step_deadline_s
        samples = self._window()
        p95 = 0.0
        if len(samples) >= self.policy.min_samples:
            p95 = exact_percentile(samples, 95.0)
        return max(self.policy.deadline_floor_s,
                   self.policy.deadline_factor * p95)


class HealthMonitor:
    """Classify workers HEALTHY / SUSPECT / FAILED from step latencies.

    SUSPECT is recomputed per observation (a transient spike self-heals
    on the next healthy sample — required for flapping workers); FAILED
    is sticky and only ever set by consecutive deadline misses, an
    extreme phi, or an explicit :meth:`mark_failed`.
    """

    def __init__(self, policy: Optional[HealthPolicy] = None) -> None:
        self.policy = policy or HealthPolicy()
        self._health: Dict[int, WorkerHealth] = {}
        self.suspect_transitions = 0
        self.failures = 0

    def attach(self, worker_id: int,
               metrics: Optional[MetricsRegistry] = None) -> WorkerHealth:
        health = WorkerHealth(worker_id, self.policy, metrics)
        self._health[worker_id] = health
        return health

    def health(self, worker_id: int) -> WorkerHealth:
        return self._health[worker_id]

    def state(self, worker_id: int) -> WorkerState:
        return self._health[worker_id].state

    def state_or_healthy(self, worker_id: int) -> WorkerState:
        """State of a worker, HEALTHY when never attached (a router can
        consult the monitor before or without wiring it up)."""
        health = self._health.get(worker_id)
        return WorkerState.HEALTHY if health is None else health.state

    def deadline_s(self, worker_id: int) -> float:
        return self._health[worker_id].deadline_s()

    def observe(self, worker_id: int, observed_s: float
                ) -> Tuple[WorkerState, WorkerState]:
        """Fold one observed step latency in; returns (before, after)."""
        health = self._health[worker_id]
        policy = self.policy
        before = health.state
        if before is WorkerState.FAILED:
            return before, before
        deadline = health.deadline_s()
        metrics = health.metrics
        if observed_s > deadline:
            health.deadline_misses += 1
            health.last_phi = math.inf
            if metrics is not None and metrics.enabled:
                metrics.counter("fleet.step_deadline_miss").inc()
                if math.isfinite(observed_s):
                    metrics.histogram(
                        "fleet.step_latency_stalled_s").observe(observed_s)
            if health.deadline_misses >= policy.fail_after_deadline_misses:
                health.state = WorkerState.FAILED
            else:
                health.state = WorkerState.SUSPECT
        else:
            health.last_phi = health.phi(observed_s)
            if health.last_phi >= policy.fail_phi \
                    and observed_s >= 0.5 * deadline:
                # An extreme outlier vs the worker's own baseline is a
                # strike, not an instant failure: strikes only count in
                # the regime where the absolute wait is material (>= half
                # the deadline), so a millisecond snapshot-fsync spike
                # over a microsecond baseline suspects at most, while a
                # wedged worker keeps striking its way to FAILED.
                health.deadline_misses += 1
                if health.deadline_misses \
                        >= policy.fail_after_deadline_misses:
                    health.state = WorkerState.FAILED
                else:
                    health.state = WorkerState.SUSPECT
            elif health.last_phi >= policy.suspect_phi:
                health.state = WorkerState.SUSPECT
                # Outliers are judged against the baseline but do not
                # join it, or a creeping slowdown would normalize itself.
            else:
                health.deadline_misses = 0
                health.state = WorkerState.HEALTHY
                health.baseline.observe(observed_s)
        after = health.state
        if before is not WorkerState.SUSPECT \
                and after is WorkerState.SUSPECT:
            self.suspect_transitions += 1
            if metrics is not None and metrics.enabled:
                metrics.counter("fleet.worker_suspect").inc()
        if before is not WorkerState.FAILED and after is WorkerState.FAILED:
            self.failures += 1
        return before, after

    def mark_failed(self, worker_id: int) -> None:
        health = self._health[worker_id]
        if health.state is not WorkerState.FAILED:
            self.failures += 1
        health.state = WorkerState.FAILED
