"""Fleet-level reduction of per-worker serve reports.

Each worker finishes its run with a normal
:class:`~repro.serve.events.ServeReport` over the requests it retired
(a migrated session is reported by the worker it *ended* on, so every
request appears exactly once fleet-wide).  :class:`FleetReport` reduces
those: clocks reduce by max (workers ran concurrently on one timeline),
token counts by sum, SLO percentiles exactly over the pooled events, and
the per-worker metrics registries through the associative
:meth:`~repro.obs.MetricsRegistry.merge`.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List, Optional

from repro.obs import MetricsRegistry
from repro.serve.events import RequestEvents, ServeReport


@dataclasses.dataclass
class FleetReport:
    """Outcome of one :class:`~repro.fleet.router.FleetRouter` run."""

    workers: List[ServeReport]
    #: associative reduction of every worker's private registry.
    metrics: MetricsRegistry
    migrations: int
    prefix_hits: int
    prefix_misses: int
    #: sum of per-pool shared-block peaks (pools are disjoint, so this is
    #: the fleet's peak resident shared footprint up to step skew).
    shared_blocks_peak: int
    #: resilience accounting (defaults keep hand-built reports working).
    failovers: int = 0
    failover_sessions: int = 0
    failover_latency_s: List[float] = dataclasses.field(
        default_factory=list)
    worker_suspects: int = 0
    worker_restores: int = 0

    # -- pooled views ---------------------------------------------------------

    @property
    def n_workers(self) -> int:
        return len(self.workers)

    @property
    def events(self) -> List[RequestEvents]:
        return [e for report in self.workers for e in report.events]

    @property
    def makespan_s(self) -> float:
        """Fleet wall time: the slowest worker's clock."""
        return max((report.clock_s for report in self.workers),
                   default=0.0)

    @property
    def tokens_generated(self) -> int:
        return sum(report.tokens_generated for report in self.workers)

    @property
    def throughput_tps(self) -> float:
        """Aggregate decode tokens per second of fleet time."""
        span = self.makespan_s
        return self.tokens_generated / span if span else 0.0

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
    def preemptions(self) -> int:
        """The schedulers' count, summed (what :attr:`pooled` carries)."""
        return sum(report.preemptions for report in self.workers)

    @property
    def prefix_hit_rate(self) -> float:
        """Fraction of full-block prefix lookups served from the cache."""
        total = self.prefix_hits + self.prefix_misses
        return self.prefix_hits / total if total else 0.0

    @property
    def availability(self) -> float:
        """Served / arrived: the fraction of arrived requests that
        completed un-shed fleet-wide (rejected and shed requests count
        against it; an empty run is vacuously up).  A worker's
        :attr:`ServeReport.availability` is completed-un-shed / completed
        instead — the two are different questions, so this one is not
        read off :attr:`pooled`."""
        events = self.events
        if not events:
            return 1.0
        served = sum(1 for e in events
                     if e.finished_s is not None and not e.shed)
        return served / len(events)

    @property
    def failover_latency_max_s(self) -> float:
        return max(self.failover_latency_s, default=0.0)

    # -- pooled SLO and brownout reductions -----------------------------------

    @property
    def pooled(self) -> ServeReport:
        """The fleet as one :class:`ServeReport` over the pooled events.

        Every per-event reduction — exact TTFT/TPOT percentiles, the
        tenant summary, brownout attribution — is the worker report's own
        code run on this view, not a second copy of it.  No registry
        histograms: percentiles are exact over the events.
        """
        workers = self.workers
        return ServeReport(
            system="fleet", events=self.events, clock_s=self.makespan_s,
            tokens_generated=self.tokens_generated,
            peak_decode_batch=max((w.peak_decode_batch for w in workers),
                                  default=0),
            preemptions=self.preemptions,
            pool_blocks=sum(w.pool_blocks for w in workers),
            pool_high_watermark=sum(w.pool_high_watermark for w in workers))

    @property
    def brownout_stage_tokens(self) -> Dict[int, int]:
        return self.pooled.brownout_stage_tokens

    @property
    def brownout_tokens(self) -> int:
        return self.pooled.brownout_tokens

    @property
    def brownout_token_fraction(self) -> float:
        return self.pooled.brownout_token_fraction

    def ttft_percentile_s(self, q: float,
                          tenant: Optional[str] = None) -> float:
        return self.pooled.ttft_percentile_s(q, tenant)

    def tpot_percentile_s(self, q: float,
                          tenant: Optional[str] = None) -> float:
        return self.pooled.tpot_percentile_s(q, tenant)

    @property
    def tenants(self) -> List[str]:
        """Distinct tenants, sorted: workers interleave, so there is no
        fleet-wide order of first appearance to report (a worker's
        :attr:`ServeReport.tenants` keeps its event order)."""
        return sorted(self.pooled.tenants)

    def tenant_summary(self) -> Dict[str, Dict]:
        """Per-tenant fleet SLO metrics (exact percentiles)."""
        summary = self.pooled.tenant_summary()
        return {tenant: summary[tenant] for tenant in sorted(summary)}

    def as_dict(self) -> Dict:
        """JSON-ready summary (the per-point payload of BENCH_fleet)."""
        return {
            "workers": self.n_workers,
            "makespan_s": self.makespan_s,
            "tokens_generated": self.tokens_generated,
            "throughput_tps": self.throughput_tps,
            "ttft_p50_s": self.ttft_percentile_s(50.0),
            "ttft_p99_s": self.ttft_percentile_s(99.0),
            "tpot_p50_s": self.tpot_percentile_s(50.0),
            "tpot_p99_s": self.tpot_percentile_s(99.0),
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
                                 in self.brownout_stage_tokens.items()},
                "token_fraction": self.brownout_token_fraction,
            },
            "prefix": {
                "hits": self.prefix_hits,
                "misses": self.prefix_misses,
                "hit_rate": self.prefix_hit_rate,
                "shared_blocks_peak": self.shared_blocks_peak,
            },
            "tenants": self.tenant_summary(),
            "per_worker": [report.as_dict() for report in self.workers],
        }
