"""A fleet run's report: the folds of its one record stream.

:class:`FleetReport` folds each record of a
:class:`~repro.fleet.router.FleetRouter` run's stream as it is written:
each request once, with its latest events; clocks by max; SLO
percentiles exactly over the pooled events.  At run end the router adds
what no record carries: the workers' own reports, their merged
registries (each worker's ``serve.steps``) and pool counters.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List

from repro.obs import MetricsRegistry
from repro.serve.events import Record, RequestEvents, ServeReport


@dataclasses.dataclass
class FleetReport:
    """Outcome of one :class:`~repro.fleet.router.FleetRouter` run."""

    #: request id -> its events, in order of the request's first record.
    requests: Dict[int, RequestEvents] = dataclasses.field(
        default_factory=dict)
    #: request id -> its capacity migrations (the router's budget).
    moves: Dict[int, int] = dataclasses.field(default_factory=dict)
    failover_sessions: int = 0
    failover_latency_s: List[float] = dataclasses.field(
        default_factory=list)
    worker_suspects: int = 0
    worker_restores: int = 0
    #: fleet time: the latest clock a worker's step reached.
    makespan_s: float = 0.0
    peak_decode_batch: int = 0
    # -- added at run end -----------------------------------------------------
    workers: List[ServeReport] = dataclasses.field(default_factory=list)
    #: associative reduction of every worker's private registry
    #: (``serve.steps``; ``fleet.dispatched`` is on the router's).
    metrics: MetricsRegistry = dataclasses.field(
        default_factory=lambda: MetricsRegistry(enabled=True))
    prefix_hits: int = 0
    prefix_misses: int = 0
    #: sum of per-pool shared-block peaks (pools are disjoint, so this is
    #: the fleet's peak resident shared footprint up to step skew).
    shared_blocks_peak: int = 0

    def apply(self, record: Record) -> None:
        """Fold one record of the fleet's stream in."""
        kind, data = record.kind, record.data
        if record.request is not None:
            self.requests[data["rid"]] = record.request.events
        if kind == "step":
            self.makespan_s = max(self.makespan_s, data["clock"])
            if data["batch"] is not None:
                self.peak_decode_batch = max(self.peak_decode_batch,
                                             data["batch"])
        elif kind == "migrate":
            if data["reason"] == "capacity":
                self.moves[data["rid"]] = self.moves.get(data["rid"], 0) + 1
            else:
                self.failover_sessions += 1
        elif kind == "failover":
            self.failover_latency_s.append(data["latency_s"])
        elif kind == "restore":
            self.worker_restores += 1
        elif kind == "health" and data["state"] == "suspect" \
                != data["before"]:
            self.worker_suspects += 1

    @property
    def events(self) -> List[RequestEvents]:
        return list(self.requests.values())

    @property
    def migrations(self) -> int:
        return sum(self.moves.values())

    @property
    def failovers(self) -> int:
        return len(self.failover_latency_s)

    @property
    def tokens_generated(self) -> int:
        return sum(len(e.token_times_s) for e in self.requests.values())

    @property
    def preemptions(self) -> int:
        return sum(e.preemptions for e in self.requests.values())

    @property
    def completed(self) -> int:
        return len(self.pooled.completed)

    @property
    def shed(self) -> int:
        return len(self.pooled.shed)

    @property
    def rejected(self) -> int:
        return len(self.pooled.rejected)

    @property
    def prefix_hit_rate(self) -> float:
        """Fraction of full-block prefix lookups served from the cache."""
        total = self.prefix_hits + self.prefix_misses
        return self.prefix_hits / total if total else 0.0

    @property
    def availability(self) -> float:
        """Served / arrived (rejected and shed requests count against
        it; an empty run is vacuously up) — not :attr:`pooled`'s
        completed-un-shed / completed, a different question."""
        events = self.events
        served = sum(e.finished_s is not None and not e.shed for e in events)
        return served / len(events) if events else 1.0

    @property
    def failover_latency_max_s(self) -> float:
        return max(self.failover_latency_s, default=0.0)

    @property
    def pooled(self) -> ServeReport:
        """The fleet as one :class:`ServeReport` over the pooled events:
        every per-event reduction is the worker report's own code."""
        workers = self.workers
        return ServeReport(
            system="fleet", events=self.events, clock_s=self.makespan_s,
            tokens_generated=self.tokens_generated,
            peak_decode_batch=self.peak_decode_batch,
            preemptions=self.preemptions,
            pool_blocks=sum(w.pool_blocks for w in workers),
            pool_high_watermark=sum(w.pool_high_watermark for w in workers))

    def as_dict(self) -> Dict:
        """JSON-ready summary (the per-point payload of BENCH_fleet);
        tenants sorted, as workers interleave."""
        pooled = self.pooled
        tenants = pooled.tenant_summary()
        return {
            "workers": len(self.workers),
            "makespan_s": self.makespan_s,
            "tokens_generated": self.tokens_generated,
            "throughput_tps": pooled.throughput_tps,
            "ttft_p50_s": pooled.ttft_percentile_s(50.0),
            "ttft_p99_s": pooled.ttft_percentile_s(99.0),
            "tpot_p50_s": pooled.tpot_percentile_s(50.0),
            "tpot_p99_s": pooled.tpot_percentile_s(99.0),
            "completed": self.completed,
            "shed": self.shed,
            "rejected": self.rejected,
            "preemptions": self.preemptions,
            "migrations": self.migrations,
            "availability": self.availability,
            "health": {
                "failovers": self.failovers,
                "failover_sessions": self.failover_sessions,
                "failover_latency_s": list(self.failover_latency_s),
                "failover_latency_max_s": self.failover_latency_max_s,
                "worker_suspects": self.worker_suspects,
                "worker_restores": self.worker_restores,
            },
            "brownout": {
                "stage_tokens": {str(s): n for s, n
                                 in pooled.brownout_stage_tokens.items()},
                "token_fraction": pooled.brownout_token_fraction,
            },
            "prefix": {
                "hits": self.prefix_hits,
                "misses": self.prefix_misses,
                "hit_rate": self.prefix_hit_rate,
                "shared_blocks_peak": self.shared_blocks_peak,
            },
            "tenants": {tenant: tenants[tenant] for tenant in sorted(tenants)},
            "per_worker": [report.as_dict() for report in self.workers],
        }
