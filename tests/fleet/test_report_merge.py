"""FleetReport: the folds of a fleet's record stream.

The merge invariants the chaos bench leans on: per-worker counters
reduce by summing across registries, merging an empty registry changes
nothing, per-token stage attribution pools across workers, the
resilience counts are folds of the router's records, and the empty /
single-worker edges degrade gracefully instead of dividing by zero.
"""

from __future__ import annotations

from types import SimpleNamespace

import pytest

from repro.fleet import FleetReport
from repro.obs import MetricsRegistry
from repro.serve.events import Record, RequestEvents, ServeReport


def make_events(request_id: int, *, finished: bool = True,
                shed: bool = False, tokens: int = 0,
                brownout: dict = None) -> RequestEvents:
    ev = RequestEvents(request_id=request_id, tenant="default",
                       arrival_s=0.0)
    ev.admitted_s = 0.0
    ev.first_token_s = 0.1
    ev.token_times_s = [0.1] * tokens
    if finished:
        ev.finished_s = 1.0
    ev.shed = shed
    ev.rejected = shed
    ev.brownout_tokens = dict(brownout or {})
    return ev


def record(kind: str, events: RequestEvents = None, worker=None,
           **data) -> Record:
    """A stream record (of the request whose events are ``events``)."""
    if events is None:
        return Record(kind, None, data, worker)
    return Record(kind, SimpleNamespace(events=events),
                  {"rid": events.request_id, **data}, worker)


def make_report(worker_events, records=()) -> FleetReport:
    """The folds of each worker's ``finish`` records, then ``records``,
    with one worker report per event list."""
    report = FleetReport(workers=[
        ServeReport(system="w", events=list(events), clock_s=1.0,
                    tokens_generated=0, peak_decode_batch=1, preemptions=0,
                    pool_blocks=8, pool_high_watermark=0)
        for events in worker_events])
    for worker, events in enumerate(worker_events):
        for ev in events:
            report.apply(record("finish", ev, worker, shed=ev.shed))
    for r in records:
        report.apply(r)
    return report


class TestCounterMerge:
    def test_resilience_counters_sum_across_workers(self):
        # The ledger's serving counters, kept per worker, reduce to the
        # fleet's totals by merging the workers' registries.
        registries = [MetricsRegistry(enabled=True) for _ in range(3)]
        for i, registry in enumerate(registries):
            registry.counter("fleet.dispatched").inc(i)
            registry.counter("serve.steps").inc(1)
            registry.counter("attention.queries").inc(10 * i)
        merged = MetricsRegistry(enabled=True)
        for registry in registries:
            merged.merge(registry)
        assert merged.counter("fleet.dispatched").value == 3
        assert merged.counter("serve.steps").value == 3
        assert merged.counter("attention.queries").value == 30

    def test_merge_with_empty_registry_is_identity(self):
        merged = MetricsRegistry(enabled=True)
        merged.counter("serve.steps").inc(2)
        merged.merge(MetricsRegistry(enabled=True))
        assert merged.counter("serve.steps").value == 2
        empty = MetricsRegistry(enabled=True)
        empty.merge(merged)
        assert empty.counter("serve.steps").value == 2


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
        report = make_report([events], [
            record("health", worker=0, before="healthy", state="suspect")])
        assert report.availability == 0.5
        assert report.pooled.brownout_stage_tokens == {1: 2}
        assert report.worker_suspects == 1

    def test_brownout_stage_tokens_pool_across_workers(self):
        w0 = [make_events(0, tokens=5, brownout={1: 3, 3: 2})]
        w1 = [make_events(1, tokens=4, brownout={3: 5}),
              make_events(2, tokens=3)]
        report = make_report([w0, w1])
        assert report.tokens_generated == 12
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

    def test_a_request_is_pooled_once_with_its_latest_events(self):
        """A migrated or recovered session's records name its latest
        copy: the report pools that one, once."""
        old, new = make_events(0, tokens=2), make_events(0, tokens=3)
        report = make_report([[]], [
            record("token", old, 0), record("preempt", old, 0),
            record("migrate", old, source=0, target=1, reason="capacity"),
            record("token", new, 1)])
        assert report.events == [new]
        assert report.tokens_generated == 3
        assert report.migrations == 1 and report.moves == {0: 1}

    def test_failover_accounting_surfaces_in_dict(self):
        moved = [make_events(i) for i in range(5)]
        report = make_report([[make_events(9)]], [
            record("failover", worker=0, recovered=True, latency_s=0.002),
            record("failover", worker=1, recovered=False, latency_s=0.004),
            *(record("migrate", ev, source=0, target=1, reason="failover")
              for ev in moved),
            *(record("health", worker=w, before="healthy", state="suspect")
              for w in range(3)),
            record("health", worker=0, before="suspect", state="suspect"),
            record("restore", worker=1)])
        assert report.failovers == 2 and report.migrations == 0
        health = report.as_dict()["health"]
        assert health["failovers"] == 2
        assert health["failover_sessions"] == 5
        assert health["failover_latency_max_s"] == pytest.approx(0.004)
        assert health["worker_suspects"] == 3
        assert health["worker_restores"] == 1
