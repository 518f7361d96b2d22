"""Per-request event logging and the serve-level report.

Every request carries timestamps for the canonical serving milestones —
arrival, admission, first token, every subsequent token, completion — in
the run's clock (analytic seconds by default, wall seconds in the
engine's measured mode).  :class:`ServeReport` reduces the event log to
the metrics a serving SLO is written against: TTFT and TPOT percentiles,
aggregate decode throughput, queueing and end-to-end latency means, and
the shed/degradation accounting the fault layer feeds.  Both serving
layers produce it: the functional
:class:`~repro.serve.engine.ServeEngine` and the analytic
:class:`~repro.system.serving_sim.ServingSimulator`.

Percentiles are sourced from the ``repro.obs`` registry: the engine
records every request's TTFT/TPOT into exact (sample-retaining)
histograms and hands them to the report, which falls back to computing
the same :func:`repro.obs.exact_percentile` over the raw events when the
registry is a no-op — the two paths are bit-identical.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List, Optional

import numpy as np

from repro.obs import Histogram, exact_percentile


@dataclasses.dataclass
class RequestEvents:
    """Timestamps and counters for one request's lifetime."""

    request_id: int
    arrival_s: float
    tenant: str = "default"
    admitted_s: Optional[float] = None
    first_token_s: Optional[float] = None
    finished_s: Optional[float] = None
    token_times_s: List[float] = dataclasses.field(default_factory=list)
    degraded_tokens: int = 0
    preemptions: int = 0
    migrations: int = 0         # cross-worker relocations (fleet runs)
    shed: bool = False          # finished pinned to the dense fallback
    rejected: bool = False      # never admitted (SLO or capacity)
    #: brownout ladder attribution: stage -> tokens of this request
    #: decoded at that stage (mirrors the degradation log; stage names
    #: in :data:`repro.serve.scheduler.BROWNOUT_STAGES`).
    brownout_tokens: Dict[int, int] = dataclasses.field(default_factory=dict)

    @property
    def brownout_token_total(self) -> int:
        return sum(self.brownout_tokens.values())

    @property
    def ttft_s(self) -> Optional[float]:
        """Time to first token (arrival -> first emitted token)."""
        if self.first_token_s is None:
            return None
        return self.first_token_s - self.arrival_s

    @property
    def tpot_s(self) -> Optional[float]:
        """Mean time per output token after the first."""
        if self.finished_s is None or len(self.token_times_s) < 2:
            return None
        span = self.token_times_s[-1] - self.token_times_s[0]
        return span / (len(self.token_times_s) - 1)

    @property
    def n_tokens(self) -> int:
        return len(self.token_times_s)

    def as_dict(self) -> dict:
        return {
            "request_id": self.request_id,
            "arrival_s": self.arrival_s,
            "tenant": self.tenant,
            "admitted_s": self.admitted_s,
            "first_token_s": self.first_token_s,
            "finished_s": self.finished_s,
            "n_tokens": self.n_tokens,
            "ttft_s": self.ttft_s,
            "tpot_s": self.tpot_s,
            "degraded_tokens": self.degraded_tokens,
            "preemptions": self.preemptions,
            "migrations": self.migrations,
            "shed": self.shed,
            "rejected": self.rejected,
            "brownout_tokens": {str(stage): count for stage, count
                                in sorted(self.brownout_tokens.items())},
        }


@dataclasses.dataclass
class ServeReport:
    """Outcome of one serving run (functional engine or analytic simulator)."""

    system: str
    events: List[RequestEvents]
    clock_s: float                    # engine clock at run end
    tokens_generated: int
    peak_decode_batch: int
    preemptions: int
    pool_blocks: int
    pool_high_watermark: int
    #: registry-backed exact TTFT/TPOT distributions, populated by the
    #: engine; ``None`` (no-op registry, or hand-built reports) falls back
    #: to recomputing from ``events``.
    ttft_hist: Optional[Histogram] = None
    tpot_hist: Optional[Histogram] = None
    #: the run's exact decode-step latency distribution
    #: (``timing.decode_step_s``), populated by the analytic simulator.
    step_hist: Optional[Histogram] = None

    # -- request partitions ---------------------------------------------------

    @property
    def completed(self) -> List[RequestEvents]:
        return [e for e in self.events if e.finished_s is not None]

    @property
    def shed(self) -> List[RequestEvents]:
        return [e for e in self.events if e.shed]

    @property
    def rejected(self) -> List[RequestEvents]:
        return [e for e in self.events if e.rejected]

    # -- SLO metrics ----------------------------------------------------------

    def _ttfts(self, tenant: Optional[str] = None) -> List[float]:
        return [e.ttft_s for e in self.events if e.ttft_s is not None
                and (tenant is None or e.tenant == tenant)]

    def _tpots(self, tenant: Optional[str] = None) -> List[float]:
        return [e.tpot_s for e in self.events if e.tpot_s is not None
                and (tenant is None or e.tenant == tenant)]

    def ttft_percentile_s(self, q: float,
                          tenant: Optional[str] = None) -> float:
        """TTFT percentile; a ``tenant`` filter always uses the exact
        per-event path (the registry histogram pools all tenants)."""
        if tenant is not None:
            return exact_percentile(self._ttfts(tenant), q)
        if self.ttft_hist is not None and self.ttft_hist.count:
            return self.ttft_hist.percentile(q)
        return exact_percentile(self._ttfts(), q)

    def tpot_percentile_s(self, q: float,
                          tenant: Optional[str] = None) -> float:
        if tenant is not None:
            return exact_percentile(self._tpots(tenant), q)
        if self.tpot_hist is not None and self.tpot_hist.count:
            return self.tpot_hist.percentile(q)
        return exact_percentile(self._tpots(), q)

    @property
    def tenants(self) -> List[str]:
        """Distinct tenants in event order of first appearance."""
        seen: List[str] = []
        for e in self.events:
            if e.tenant not in seen:
                seen.append(e.tenant)
        return seen

    def tenant_summary(self) -> Dict[str, Dict]:
        """Per-tenant SLO metrics (exact percentiles over the events)."""
        out: Dict[str, Dict] = {}
        for tenant in self.tenants:
            mine = [e for e in self.events if e.tenant == tenant]
            out[tenant] = {
                "requests": len(mine),
                "completed": sum(1 for e in mine
                                 if e.finished_s is not None),
                "rejected": sum(1 for e in mine if e.rejected),
                "migrations": sum(e.migrations for e in mine),
                "ttft_p50_s": self.ttft_percentile_s(50.0, tenant),
                "ttft_p99_s": self.ttft_percentile_s(99.0, tenant),
                "tpot_p50_s": self.tpot_percentile_s(50.0, tenant),
                "tpot_p99_s": self.tpot_percentile_s(99.0, tenant),
            }
        return out

    def step_percentile_s(self, q: float) -> float:
        """Decode-step latency percentile (0.0 without a step histogram)."""
        return self.step_hist.percentile(q) if self.step_hist is not None \
            else 0.0

    @property
    def mean_queueing_delay_s(self) -> float:
        """Mean arrival -> first admission over every admitted request."""
        delays = [e.admitted_s - e.arrival_s for e in self.events
                  if e.admitted_s is not None]
        return float(np.mean(delays)) if delays else 0.0

    @property
    def mean_request_latency_s(self) -> float:
        """Mean arrival -> completion over the completed requests."""
        done = self.completed
        if not done:
            return 0.0
        return float(np.mean([e.finished_s - e.arrival_s for e in done]))

    @property
    def throughput_tps(self) -> float:
        """Aggregate decode tokens per second of engine time."""
        return self.tokens_generated / self.clock_s if self.clock_s else 0.0

    @property
    def degraded_tokens(self) -> int:
        return sum(e.degraded_tokens for e in self.events)

    @property
    def degraded_token_fraction(self) -> float:
        if self.tokens_generated == 0:
            return 0.0
        return self.degraded_tokens / self.tokens_generated

    @property
    def brownout_tokens(self) -> int:
        return sum(e.brownout_token_total for e in self.events)

    @property
    def brownout_stage_tokens(self) -> Dict[int, int]:
        """Pooled brownout attribution: stage -> tokens served at it."""
        pooled: Dict[int, int] = {}
        for e in self.events:
            for stage, count in e.brownout_tokens.items():
                pooled[stage] = pooled.get(stage, 0) + count
        return dict(sorted(pooled.items()))

    @property
    def brownout_token_fraction(self) -> float:
        if self.tokens_generated == 0:
            return 0.0
        return self.brownout_tokens / self.tokens_generated

    @property
    def availability(self) -> float:
        """Completed-un-shed / completed: of the requests that finished,
        the fraction that kept sparse service.  Rejected requests do not
        count here; the fleet's served / arrived is
        :attr:`repro.fleet.report.FleetReport.availability`."""
        done = self.completed
        if not done:
            return 1.0
        return sum(1 for e in done if not e.shed) / len(done)

    def as_dict(self) -> Dict:
        """JSON-ready summary (the per-point payload of BENCH_serve)."""
        return {
            "system": self.system,
            "clock_s": self.clock_s,
            "tokens_generated": self.tokens_generated,
            "throughput_tps": self.throughput_tps,
            "ttft_p50_s": self.ttft_percentile_s(50.0),
            "ttft_p99_s": self.ttft_percentile_s(99.0),
            "tpot_p50_s": self.tpot_percentile_s(50.0),
            "tpot_p99_s": self.tpot_percentile_s(99.0),
            "completed": len(self.completed),
            "shed": len(self.shed),
            "rejected": len(self.rejected),
            "preemptions": self.preemptions,
            "peak_decode_batch": self.peak_decode_batch,
            "degraded_token_fraction": self.degraded_token_fraction,
            "availability": self.availability,
            "brownout": {
                "stage_tokens": {str(s): n for s, n
                                 in self.brownout_stage_tokens.items()},
                "token_fraction": self.brownout_token_fraction,
            },
            "pool": {"n_blocks": self.pool_blocks,
                     "high_watermark": self.pool_high_watermark},
            "tenants": self.tenant_summary(),
        }
