"""Fleet health: gray-failure detection and the worker suspicion model.

A crashed worker raises; a *gray* worker does something worse — it keeps
answering, just slowly, intermittently, or not at all, and a lockstep
dispatch loop that always waits for the laggard will happily wait on it
forever.  This module gives the router the three pieces it needs to stop
doing that:

- :class:`GrayFailurePlan` (in :mod:`repro.faults`) schedules
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
  samples, a bounded window the monitor keeps) plus a hard **step
  deadline** derived from the healthy p95 (``DEADLINE_FACTOR`` +
  ``DEADLINE_FLOOR_S``, or a fixed policy override).  Verdict changes
  and strikes are ``health`` records on the router's log.
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
feedback loop of naive adaptive timeouts).
"""

from __future__ import annotations

import collections
import dataclasses
import enum
import math
from typing import Dict, Optional, Tuple

from repro.obs import exact_percentile
from repro.serve.events import RecordLog


class WorkerState(enum.Enum):
    HEALTHY = "healthy"
    SUSPECT = "suspect"
    FAILED = "failed"


#: Healthy step-latency samples the normal model is fit over (a sliding
#: window of the most recent).
WINDOW = 64
#: Below this many healthy samples phi is 0 — a cold worker is given the
#: benefit of the doubt (the deadline floor still guards against a wedge
#: during warmup).
MIN_SAMPLES = 8
#: A derived deadline is ``max(DEADLINE_FLOOR_S, DEADLINE_FACTOR *
#: healthy p95)``; the floor keeps warmup jitter and sub-millisecond
#: tiny-model steps from tripping the guard.
DEADLINE_FACTOR = 20.0
DEADLINE_FLOOR_S = 0.25
#: Consecutive strikes (deadline misses or phi >= ``fail_phi``) that
#: escalate SUSPECT to FAILED — a single strike only suspects, so one GC
#: pause, snapshot fsync, or flap does not trigger a failover.
FAIL_AFTER_STRIKES = 2
#: Hedged-probe cadence: a SUSPECT worker is stepped once per this many
#: router iterations, off the critical path.
PROBE_EVERY = 4


@dataclasses.dataclass(frozen=True)
class HealthPolicy:
    """Knobs of the suspicion model and the bounded-wait guard; the
    window, warmup, derived deadline, strike count and probe cadence are
    the module constants above.

    Attributes:
        suspect_phi: suspicion score at or above which a worker is
            classified SUSPECT (drained + hedge-probed, not failed).
        fail_phi: suspicion score at or above which an observation
            counts as a *strike* even without a deadline miss, provided
            the wait is material (>= half the deadline) — a fast worker
            can wedge relative to its own baseline long before the
            absolute deadline, but sub-deadline-scale spikes (snapshot
            fsync) must never accumulate into a failover.
        step_deadline_s: fixed per-step deadline override; ``None``
            derives it from the healthy window's p95.
    """

    suspect_phi: float = 5.0
    fail_phi: float = 12.0
    step_deadline_s: Optional[float] = None

    def __post_init__(self) -> None:
        if not 0.0 < self.suspect_phi <= self.fail_phi:
            raise ValueError("need 0 < suspect_phi <= fail_phi")
        if self.step_deadline_s is not None and self.step_deadline_s <= 0:
            raise ValueError("step_deadline_s must be > 0")


class WorkerHealth:
    """One worker's healthy-latency window and current verdict."""

    def __init__(self, worker_id: int, policy: HealthPolicy) -> None:
        self.worker_id = worker_id
        self.policy = policy
        self.state = WorkerState.HEALTHY
        self.deadline_misses = 0
        self.last_phi = 0.0
        #: the last ``WINDOW`` healthy step latencies, oldest first.
        self.window = collections.deque(maxlen=WINDOW)

    # -- the suspicion score --------------------------------------------------

    def phi(self, observed_s: float) -> float:
        """-log10 survival probability of ``observed_s`` under a normal
        model of the recent healthy window (phi-accrual style).

        The std floor is ``max(std, mean)``: tiny-model step times jitter
        multiplicatively (allocator, GC), so anything under ~5x the mean
        scores low and a simulated multi-second stall scores enormous.
        """
        samples = self.window
        if len(samples) < MIN_SAMPLES:
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
        samples = self.window
        p95 = 0.0
        if len(samples) >= MIN_SAMPLES:
            p95 = exact_percentile(samples, 95.0)
        return max(DEADLINE_FLOOR_S, DEADLINE_FACTOR * p95)


class HealthMonitor:
    """Classify workers HEALTHY / SUSPECT / FAILED from step latencies.

    SUSPECT is recomputed per observation (a transient spike self-heals
    on the next healthy sample — required for flapping workers); FAILED
    is sticky and only ever set by consecutive strikes (deadline misses
    or material extreme-phi outliers).  Every verdict change and every
    counted strike is written to ``log`` as one ``health`` record
    (``worker``, ``before``, ``state``, ``phi``, ``strikes``,
    ``observed_s``, ``deadline_s``); a steady verdict writes nothing.
    """

    def __init__(self, log: RecordLog,
                 policy: Optional[HealthPolicy] = None) -> None:
        self.log = log
        self.policy = policy or HealthPolicy()
        self._health: Dict[int, WorkerHealth] = {}

    def attach(self, worker_id: int) -> WorkerHealth:
        health = WorkerHealth(worker_id, self.policy)
        self._health[worker_id] = health
        return health

    def health(self, worker_id: int) -> WorkerHealth:
        return self._health[worker_id]

    def state_or_healthy(self, worker_id: int) -> WorkerState:
        """State of a worker, HEALTHY when never attached (a router can
        consult the monitor before or without wiring it up)."""
        health = self._health.get(worker_id)
        return WorkerState.HEALTHY if health is None else health.state

    def deadline_s(self, worker_id: int) -> float:
        return self._health[worker_id].deadline_s()

    def reset(self, worker_id: int) -> None:
        """A restored worker starts HEALTHY with no strikes; its healthy
        window is still its own latency history, so it is kept."""
        health = self._health[worker_id]
        health.state = WorkerState.HEALTHY
        health.deadline_misses = 0
        health.last_phi = 0.0

    def observe(self, worker_id: int, observed_s: float
                ) -> Tuple[WorkerState, WorkerState]:
        """Fold one observed step latency in; returns (before, after)."""
        health = self._health[worker_id]
        policy = self.policy
        before, strikes = health.state, health.deadline_misses
        if before is WorkerState.FAILED:
            return before, before
        deadline = health.deadline_s()
        if observed_s > deadline:
            health.last_phi = math.inf
            self._strike(health)
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
                self._strike(health)
            elif health.last_phi >= policy.suspect_phi:
                health.state = WorkerState.SUSPECT
                # Outliers are judged against the baseline but do not
                # join it, or a creeping slowdown would normalize itself.
            else:
                health.deadline_misses = 0
                health.state = WorkerState.HEALTHY
                health.window.append(observed_s)
        after = health.state
        if after is not before or health.deadline_misses > strikes:
            self.log.emit("health", worker=worker_id, before=before.value,
                          state=after.value, phi=health.last_phi,
                          strikes=health.deadline_misses,
                          observed_s=observed_s, deadline_s=deadline)
        return before, after

    def _strike(self, health: WorkerHealth) -> None:
        health.deadline_misses += 1
        failed = health.deadline_misses >= FAIL_AFTER_STRIKES
        health.state = WorkerState.FAILED if failed else WorkerState.SUSPECT
