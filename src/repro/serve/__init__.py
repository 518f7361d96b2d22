"""repro.serve: continuous-batching functional serving.

The one serving loop: many concurrent sessions decode *real tokens*
through one shared transformer over one paged KV arena, with chunked
prefill, SLO-aware admission, recompute-preemption, and degradation-aware
shedding onto the dense sliding-window fallback.  On the analytic clock
the engine also admits on the modeled system's capacity rule, so the
paper's serving claims (one GPU's HBM full, LongSight + DReX still
admitting) are reproduced with every token decoded.

Layout:

- :mod:`repro.serve.paged_kv` — block-granular KV pool + paged caches;
- :mod:`repro.serve.scheduler` — request lifecycle, admission, preemption;
- :mod:`repro.serve.engine` — the step loop, analytic/measured clocks;
- :mod:`repro.serve.events` — the record stream, its folds (per-request
  events, per-kind counts) and ServeReport;
- :mod:`repro.serve.workload` — the compared systems and their backends
  (traces are :mod:`repro.bench.scenario` specs).
"""

from repro.serve.engine import AnalyticTiming, EngineRun, ServeEngine
from repro.serve.events import RequestEvents, ServeReport
from repro.serve.paged_kv import PagedKVCache, PagedKVPool
from repro.serve.scheduler import (ContinuousBatchScheduler, RequestState,
                                   ServeRequest, SloPolicy, TenantClass)

__all__ = [
    "AnalyticTiming",
    "ContinuousBatchScheduler",
    "EngineRun",
    "PagedKVCache",
    "PagedKVPool",
    "RequestEvents",
    "RequestState",
    "ServeEngine",
    "ServeReport",
    "ServeRequest",
    "SloPolicy",
    "TenantClass",
]
