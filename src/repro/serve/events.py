"""A run's record stream, the folds over it, and the serve-level report.

Each fact of a run is written once, as a :class:`Record`, where it is
decided: the scheduler emits ``admit``, ``reject``, ``preempt``,
``brownout``, ``pin``, ``token`` and ``finish``; the engine run the
inputs ``inject`` / ``depart`` and one ``step`` per engine step; the
fleet router ``migrate``, ``failover`` and ``restore`` on its own log,
and its health monitor ``health`` there, one per verdict change or
counted strike.
:meth:`RecordLog.emit` folds each record into the request's
:class:`RequestEvents` and the log's per-kind ``counts`` (the run totals
of a :class:`ServeReport`), and
sinks it into the ``serve.*`` / ``fleet.*`` counters; a durable run also
writes it to its WAL.  Times are in the run's clock (analytic seconds by
default, wall seconds in the engine's measured mode).

:class:`ServeReport` reduces the events to the metrics a serving SLO is
written against: exact TTFT and TPOT percentiles
(:func:`repro.obs.exact_percentile`), decode throughput, queueing and
latency means, and the shed/degradation accounting.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List, NamedTuple, Optional

import numpy as np

from repro.obs import MetricsRegistry, exact_percentile

RECORD_KINDS = ("inject", "admit", "reject", "token", "preempt", "pin",
                "brownout", "migrate", "depart", "finish", "step",
                "failover", "restore", "health")
#: what a run is given rather than computes: replay applies these.
INPUT_KINDS = ("inject", "depart")
#: run-clock fields (wall seconds, so not reproducible, in measured mode).
TIME_FIELDS = ("t", "clock")


class Record(NamedTuple):
    """One fact: its kind, its request (``None`` for a run-level record),
    its JSON-safe scalar fields (the request's id as ``rid``) and, in a
    fleet's stream, the id of the ``worker`` that wrote it."""

    kind: str
    request: object
    data: dict
    worker: Optional[int] = None


@dataclasses.dataclass
class RequestEvents:
    """One request's lifetime: the fold of its records."""

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

    def apply(self, record: Record) -> None:
        """Fold one of this request's records in."""
        kind, data = record.kind, record.data
        if kind == "admit" and self.admitted_s is None:
            self.admitted_s = data["t"]
        elif kind == "token":
            self.token_times_s.append(data["t"])
            self.first_token_s = self.token_times_s[0]
            self.degraded_tokens += data["degraded"]
            if data["level"]:
                _bump(self.brownout_tokens, data["level"])
        elif kind == "preempt":
            self.preemptions += 1
        elif kind == "migrate":
            self.migrations += 1
        elif kind == "reject":
            self.rejected = self.shed = True
        elif kind == "finish":
            self.finished_s, self.shed = data["t"], data["shed"]

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


def _bump(counts: dict, key) -> None:
    counts[key] = counts.get(key, 0) + 1


#: counters of the kinds whose counters do not depend on the fields.
_COUNTERS = {"preempt": ["serve.preemptions"],
             "pin": ["serve.shed.degraded_pin"],
             "brownout": ["serve.brownout.transitions"]}


def _counters(record: Record) -> List[str]:
    """The ``serve.*`` / ``fleet.*`` counters ``record`` increments."""
    kind, data = record.kind, record.data
    if kind == "token":
        names = ["serve.tokens"]
        if data["degraded"]:
            names.append("serve.degraded_tokens")
        if data["level"]:
            names += ["serve.brownout.stage_tokens",
                      f"serve.brownout.stage{data['level']}_tokens"]
        return names
    if kind == "step":
        return ["serve.steps"] * (data["batch"] is not None)
    if kind == "admit":
        return [f"serve.tenant.{record.request.tenant}.admitted"]
    if kind == "reject":
        return ["serve.rejected", f"serve.shed.{data['cause']}"]
    if kind == "migrate":
        return ["fleet.migrations" if data["reason"] == "capacity"
                else "fleet.failover_sessions"]
    if kind == "failover":
        return ["fleet.failovers", f"fleet.worker{data['worker']}.failovers",
                "fleet.failover_recovered" if data["recovered"]
                else "fleet.failover_recomputed"]
    if kind == "restore":
        return ["fleet.worker_restores",
                f"fleet.worker{data['worker']}.restores"]
    if kind == "health":
        names = []
        if data["state"] == "suspect" != data["before"]:
            names.append("fleet.worker_suspect")
        if data["observed_s"] > data["deadline_s"]:
            names.append("fleet.step_deadline_miss")
        return names
    return _COUNTERS.get(kind, [])


class RecordLog:
    """A run's record stream: ``records`` emitted since the last
    :meth:`drain`, and ``counts``, the computed (non-input) records per
    kind."""

    def __init__(self, metrics: MetricsRegistry) -> None:
        self.metrics = metrics
        self.records: List[Record] = []
        self.counts: Dict[str, int] = {}

    def emit(self, kind: str, request=None, **data) -> None:
        """Write one record and fold it into every consumer."""
        if request is not None:
            data = {"rid": request.request_id, **data}
        record = Record(kind, request, data)
        if request is not None:
            request.events.apply(record)
        if self.metrics.enabled:
            for name in _counters(record):
                self.metrics.counter(name).inc()
            if kind == "failover":
                self.metrics.histogram("fleet.failover_latency_s").observe(
                    data["latency_s"])
        self.append(record)

    def append(self, record: Record) -> None:
        """Add a record already folded into its request and sunk (by
        :meth:`emit`, or a worker's log for a fleet's stream)."""
        self.records.append(record)
        if record.kind not in INPUT_KINDS:
            _bump(self.counts, record.kind)

    def drain(self) -> List[Record]:
        """The records emitted since the last drain, in order."""
        records, self.records = self.records, []
        return records


@dataclasses.dataclass
class ServeReport:
    """Outcome of one serving run."""

    system: str
    events: List[RequestEvents]
    clock_s: float                    # engine clock at run end
    tokens_generated: int
    peak_decode_batch: int
    preemptions: int
    pool_blocks: int
    pool_high_watermark: int

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
        """TTFT percentile over the events (of one ``tenant``, if given)."""
        return exact_percentile(self._ttfts(tenant), q)

    def tpot_percentile_s(self, q: float,
                          tenant: Optional[str] = None) -> float:
        return exact_percentile(self._tpots(tenant), q)

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
