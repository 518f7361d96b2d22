"""repro.fleet: sharded multi-worker serving over prefix-cached pools.

One :class:`~repro.serve.engine.ServeEngine` is the ceiling a single
paged KV pool imposes; the fleet layer shards serving across N workers —
each an engine with its own pool, scheduler, and metrics registry — and
routes requests with session affinity plus load/locality-aware placement
(prefer the worker already holding the request's longest cached prompt
prefix).  When a worker's pool exhausts, its preemption victims are
*migrated* to a sibling worker instead of being re-queued locally or
shed: migration reuses the recompute-resume discipline (re-prefill
``prompt + outputs[:-1]``, replay the last token), so relocated sessions
stay bit-identical to an uninterrupted solo run.

Layout:

- :mod:`repro.fleet.router` — :class:`FleetWorker`, :class:`FleetRouter`
  (placement, migration, the lockstep-laggard stepping loop, gray-failure
  failover);
- :mod:`repro.fleet.resilience` — :class:`HealthMonitor` /
  :class:`HealthPolicy` / :class:`WorkerState` (phi-accrual-style
  suspicion over step latencies; the router feeds it wall time plus the
  simulated stalls of a :class:`~repro.system.faults.GrayFailurePlan`);
- :mod:`repro.fleet.report` — :class:`FleetReport` (per-worker
  :class:`~repro.serve.events.ServeReport` reduction plus the merged
  :class:`~repro.obs.MetricsRegistry`).
"""

from repro.fleet.report import FleetReport
from repro.fleet.resilience import (HealthMonitor, HealthPolicy,
                                    WorkerHealth, WorkerState)
from repro.fleet.router import FleetRouter, FleetWorker, make_worker

__all__ = [
    "FleetReport",
    "FleetRouter",
    "FleetWorker",
    "HealthMonitor",
    "HealthPolicy",
    "WorkerHealth",
    "WorkerState",
    "make_worker",
]
