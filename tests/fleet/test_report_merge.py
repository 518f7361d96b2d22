"""FleetReport reduction of resilience counters and brownout attribution.

The merge invariants the chaos bench leans on: per-worker counters
(offload retries and degradations, brownout stage tokens) reduce
associatively across registries, per-token stage attribution
pools across workers, and the empty / single-worker edges degrade
gracefully instead of dividing by zero.
"""

from __future__ import annotations

import pytest

from repro.fleet import FleetReport
from repro.obs import MetricsRegistry
from repro.serve.events import RequestEvents, ServeReport


def make_events(request_id: int, *, finished: bool = True,
                shed: bool = False,
                brownout: dict = None) -> RequestEvents:
    ev = RequestEvents(request_id=request_id, tenant="default",
                       arrival_s=0.0)
    ev.admitted_s = 0.0
    ev.first_token_s = 0.1
    if finished:
        ev.finished_s = 1.0
    ev.shed = shed
    ev.rejected = shed
    ev.brownout_tokens = dict(brownout or {})
    return ev


def make_worker_report(events, tokens: int = 0,
                       clock_s: float = 1.0) -> ServeReport:
    return ServeReport(system="w", events=list(events), clock_s=clock_s,
                       tokens_generated=tokens, peak_decode_batch=1,
                       preemptions=0, pool_blocks=8,
                       pool_high_watermark=0)


def make_report(worker_events, tokens_per_worker=(), **kwargs
                ) -> FleetReport:
    workers = []
    for i, events in enumerate(worker_events):
        tokens = tokens_per_worker[i] if i < len(tokens_per_worker) else 0
        workers.append(make_worker_report(events, tokens=tokens))
    defaults = dict(migrations=0, prefix_hits=0, prefix_misses=0,
                    shared_blocks_peak=0)
    defaults.update(kwargs)
    return FleetReport(workers=workers,
                       metrics=MetricsRegistry(enabled=True), **defaults)


class TestCounterMerge:
    def test_resilience_counters_sum_across_workers(self):
        registries = [MetricsRegistry(enabled=True) for _ in range(3)]
        for i, registry in enumerate(registries):
            registry.counter("offload.retries").inc(i)
            registry.counter("offload.degraded").inc(1)
            registry.counter("serve.brownout.stage_tokens").inc(10 * i)
        merged = MetricsRegistry(enabled=True)
        for registry in registries:
            merged.merge(registry)
        assert merged.counter("offload.retries").value == 3
        assert merged.counter("offload.degraded").value == 3
        assert merged.counter("serve.brownout.stage_tokens").value == 30

    def test_merge_with_empty_registry_is_identity(self):
        merged = MetricsRegistry(enabled=True)
        merged.counter("fleet.failovers").inc(2)
        merged.merge(MetricsRegistry(enabled=True))
        assert merged.counter("fleet.failovers").value == 2
        empty = MetricsRegistry(enabled=True)
        empty.merge(merged)
        assert empty.counter("fleet.failovers").value == 2


class TestReportEdges:
    def test_empty_fleet_report(self):
        report = make_report([])
        assert report.availability == 1.0
        assert report.pooled.brownout_stage_tokens == {}
        assert report.pooled.brownout_token_fraction == 0.0
        assert report.failover_latency_max_s == 0.0
        assert report.as_dict()["health"]["failovers"] == 0

    def test_single_worker_report(self):
        events = [make_events(0, brownout={1: 2}),
                  make_events(1, finished=False, shed=True)]
        report = make_report([events], worker_suspects=1)
        assert report.availability == 0.5
        assert report.pooled.brownout_stage_tokens == {1: 2}
        assert report.worker_suspects == 1

    def test_brownout_stage_tokens_pool_across_workers(self):
        w0 = [make_events(0, brownout={1: 3, 3: 2})]
        w1 = [make_events(1, brownout={3: 5}), make_events(2)]
        report = make_report([w0, w1], tokens_per_worker=(5, 7))
        assert report.pooled.brownout_stage_tokens == {1: 3, 3: 7}
        assert report.pooled.brownout_tokens == 10
        assert report.pooled.brownout_token_fraction == pytest.approx(10 / 12)
        as_dict = report.as_dict()["brownout"]
        assert as_dict["stage_tokens"] == {"1": 3, "3": 7}

    def test_availability_counts_shed_against(self):
        events = [[make_events(i) for i in range(3)]
                  + [make_events(3, finished=False, shed=True)]]
        report = make_report(events)
        assert report.availability == pytest.approx(0.75)

    def test_failover_accounting_surfaces_in_dict(self):
        report = make_report([[make_events(0)]], failovers=2,
                             failover_sessions=5,
                             failover_latency_s=[0.002, 0.004],
                             worker_suspects=3, worker_restores=1)
        health = report.as_dict()["health"]
        assert health["failovers"] == 2
        assert health["failover_sessions"] == 5
        assert health["failover_latency_max_s"] == pytest.approx(0.004)
        assert health["worker_suspects"] == 3
        assert health["worker_restores"] == 1
