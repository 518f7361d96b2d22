"""repro.serve: continuous-batching functional serving.

The serving layer the paper's system story implies but the analytic
simulator cannot test: many concurrent sessions decoding *real tokens*
through one shared transformer over one paged KV arena, with chunked
prefill, SLO-aware admission, recompute-preemption, and degradation-aware
shedding onto the dense sliding-window fallback.  Its request, timing and
report types are also the analytic
:class:`~repro.system.serving_sim.ServingSimulator`'s vocabulary.

Layout:

- :mod:`repro.serve.paged_kv` — block-granular KV pool + paged caches;
- :mod:`repro.serve.scheduler` — request lifecycle, admission, preemption;
- :mod:`repro.serve.engine` — the step loop, analytic/measured clocks;
- :mod:`repro.serve.events` — per-request event log and ServeReport;
- :mod:`repro.serve.crossval` — the seeded Poisson trace generator and
  the functional-vs-analytic cross-validation.
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
