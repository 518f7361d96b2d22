"""Fleet routing: placement, migration, and the lockstep stepping loop.

The router owns N workers and drives their :class:`~repro.serve.engine.
EngineRun` loops on one coherent timeline: each outer iteration steps the
**laggard** (the busy worker with the smallest clock), so worker clocks
advance together and cross-worker decisions (dispatch, migration) are
made against comparable times — the multi-queue analogue of the single
engine's event loop.

Placement: a request carrying a ``session`` key goes to the worker
already serving that session (**affinity**: its KV blocks, sign store and
prefix index live there).  Everything else — a fresh placement, the
target of a migration, the target of a failover drain — is one ranking
over the live workers (:meth:`FleetRouter._best_worker`):

1. **Health** — HEALTHY before SUSPECT; FAILED workers take nothing.
2. **Prefix locality** — the worker whose prefix index holds the longest
   cached prefix of the request's prompt (attachable blocks beat free
   blocks: they save prefill work *and* pool space).
3. **Load** — the most free blocks net of blocks already promised to
   queued work; then the lowest worker id.

Migration is cross-worker preemption, made between steps.  Local
preemption requeues its victim (blocks freed, state QUEUED, generated
tokens kept); once the source's step is over, the router offers each
session that step preempted to a worker that can admit it *now* and
moves it with :meth:`FleetRouter._relocate` — the one relocation path,
which a failover drain takes too: departure recorded on the source, a
``migrate`` record, then injected into the target.  There the standard
resume path re-prefills ``prompt + outputs[:-1]`` and replays the last
token — bit-identical to an uninterrupted run.  A per-request budget of
``max_migrations`` capacity migrations (the fold of its ``migrate``
records) prevents ping-pong; a request over its budget stays requeued on
the source.  Every record — the router's, its monitor's, each worker's,
tagged — goes to the router's ``log``, the fleet's one stream.

Recovery is one routine, :meth:`FleetRouter._rebuild`: a fresh engine
from the worker's factory, its durable directory recovered into it.  A
*killed* worker is rebuilt in place and keeps its sessions.  A FAILED
worker (see :mod:`repro.fleet.resilience`) is *failed over*: fence →
rebuild → drain every live session to the best sibling; when rebuild has
nothing to load (no durable directory, no verifiable snapshot) the drain
runs off the fenced in-memory run instead — recompute migration.

Gray failures are router input, not worker behaviour: a worker's
:class:`~repro.faults.GrayFailurePlan` is read at every guarded
step against the worker's step count, its stall seconds are added to the
observed latency fed to the :class:`HealthMonitor`, and an infinite
stall skips the step.  A SUSPECT worker is drained — no new placements,
stepped only as an occasional hedged probe so the healthy laggard keeps
the fleet moving — and self-heals when its suspicion drops.  With no live
sibling left the bounded-wait guard raises
:class:`~repro.errors.WorkerStalledError` instead of hanging the loop.
"""

from __future__ import annotations

import math
import pathlib
import time
from typing import Callable, Dict, List, Optional, Sequence

from repro.durable import DurableRun, RecoveryStats, recover
from repro.errors import (SnapshotCorruptError, WorkerKilledError,
                          WorkerStalledError)
from repro.faults import CrashPlan, GrayFailurePlan
from repro.llm.model import Transformer
from repro.obs import MetricsRegistry, Obs, Tracer, resolve_obs
from repro.serve.engine import EngineRun, ServeEngine, TimingModel
from repro.serve.events import Record, RecordLog
from repro.serve.paged_kv import PagedKVPool
from repro.serve.scheduler import ServeRequest, SloPolicy

from repro.fleet.report import FleetReport
from repro.fleet.resilience import (PROBE_EVERY, HealthMonitor, HealthPolicy,
                                    WorkerState)


class FleetWorker:
    """One serving shard: an engine plus its identity in the fleet."""

    def __init__(self, worker_id: int, engine: ServeEngine,
                 engine_factory: Optional[
                     Callable[[], ServeEngine]] = None,
                 durable_dir: Optional[pathlib.Path] = None) -> None:
        self.worker_id = worker_id
        self.engine = engine
        #: router-owned during a run; a DurableRun iff ``durable_dir``.
        self.run: Optional[EngineRun] = None
        #: guarded steps since ``run`` was (re)built: the index a
        #: :class:`GrayFailurePlan` is read against.
        self.run_steps = 0
        #: rebuilds a fresh engine after a crash (restore loads into it).
        self.engine_factory = engine_factory
        #: where this worker's snapshots + WAL live; None = not durable.
        self.durable_dir = None if durable_dir is None \
            else pathlib.Path(durable_dir)

    @property
    def pool(self) -> PagedKVPool:
        return self.engine.pool

    @property
    def obs(self) -> Obs:
        return self.engine.obs


def make_worker(worker_id: int, model: Transformer, backend_factory,
                n_blocks: int, block_tokens: int = 16,
                policy: Optional[SloPolicy] = None,
                timing_factory: Optional[
                    Callable[[Obs], TimingModel]] = None,
                max_steps: int = 1_000_000,
                durable_root: Optional[pathlib.Path] = None) -> FleetWorker:
    """Build a worker with its own prefix-cached pool and metrics registry.

    Every worker gets a private enabled :class:`MetricsRegistry` (tracing
    off) so its ``serve.steps`` merge associatively into the fleet
    report.  ``timing_factory`` is called with that bundle, which no
    timing model reads: the ledger's ``perf/workloads.py`` passes a
    one-argument factory (ROADMAP item 7(c) drops the argument).

    With ``durable_root`` set, the worker serves durably out of
    ``durable_root/worker<id>`` (snapshots + WAL) and carries an engine
    factory so the router can rebuild it from disk after a crash — the
    factory builds a *fresh* pool and registry each call, exactly like a
    restarted process.
    """
    def build() -> ServeEngine:
        obs = Obs(MetricsRegistry(enabled=True), Tracer(enabled=False))
        pool = PagedKVPool(model.config, n_blocks, block_tokens,
                           prefix_caching=True, obs=obs)
        timing = timing_factory(obs) if timing_factory is not None else None
        return ServeEngine(model, pool, backend_factory, policy=policy,
                           timing=timing, name=f"worker{worker_id}",
                           max_steps=max_steps, obs=obs)

    durable_dir = None if durable_root is None \
        else pathlib.Path(durable_root) / f"worker{worker_id}"
    return FleetWorker(worker_id, build(), engine_factory=build,
                       durable_dir=durable_dir)


class FleetLog(RecordLog):
    """The fleet's one record stream: the router's records and every
    worker's, tagged; ``report`` folds each record as it is written."""

    def __init__(self) -> None:
        super().__init__()
        self.report = FleetReport()

    def append(self, record: Record) -> None:
        super().append(record)
        self.report.apply(record)


class FleetRouter:
    """Route requests over N workers; shed/migrate on pool exhaustion.

    Args:
        workers: the serving shards (distinct pools; same model family
            and backend family, or prefix sharing would not be valid).
        max_migrations: per-request capacity-migration budget; a
            preempted request over budget stays requeued on its source.
        obs: router-level bundle; its registry counts
            ``fleet.dispatched``.  Worker counters live in each worker's
            own registry; every other fleet fact is a record of the
            fleet's stream, folded by :class:`FleetReport`.
        max_steps: hard bound on router iterations across the run.
        gray_plans: per-worker :class:`GrayFailurePlan` schedules, read
            by the guarded step so their simulated stalls drive the real
            detection path.
        health: suspicion-model knobs (:class:`HealthPolicy` defaults
            when ``None`` — monitoring is always on; with wall steps in
            the milliseconds the deadline floor keeps it inert).

    :meth:`run` is :meth:`start`, :meth:`step` until ``False``,
    :meth:`finish`.  Each run starts its own ``log``, monitor and
    recovery list, and its sessions' affinity ends with it: no run sees
    another's facts.
    """

    def __init__(self, workers: Sequence[FleetWorker],
                 max_migrations: int = 3,
                 obs: Optional[Obs] = None,
                 max_steps: int = 4_000_000,
                 snapshot_every: int = 8,
                 crash_plans: Optional[Dict[int, CrashPlan]] = None,
                 gray_plans: Optional[Dict[int, GrayFailurePlan]] = None,
                 health: Optional[HealthPolicy] = None) -> None:
        if not workers:
            raise ValueError("a fleet needs at least one worker")
        ids = [w.worker_id for w in workers]
        if len(ids) != len(set(ids)):
            raise ValueError("worker ids must be unique")
        pools = {id(w.pool) for w in workers}
        if len(pools) != len(workers):
            raise ValueError("workers must not share a KV pool")
        self.workers = list(workers)
        self.max_migrations = max_migrations
        self.obs = resolve_obs(obs)
        self.max_steps = max_steps
        self.snapshot_every = snapshot_every
        self.crash_plans = dict(crash_plans or {})
        self.gray_plans = dict(gray_plans or {})
        self.health_policy = health
        self._affinity: Dict[str, FleetWorker] = {}
        self._begin()

    def _begin(self) -> None:
        """A fresh record stream, monitor and recovery list."""
        self.log = FleetLog()
        #: the records of the last iteration, in stream order.
        self.records: List[Record] = []
        self.monitor = HealthMonitor(self.log, self.health_policy)
        self.recoveries: List[RecoveryStats] = []

    # -- the fleet loop -------------------------------------------------------

    def run(self, requests: Sequence[ServeRequest]) -> FleetReport:
        """Serve ``requests`` across the fleet; returns the fleet report."""
        self.start(requests)
        try:
            while self.step():
                pass
        finally:
            self._affinity.clear()  # the run's sessions end with it
        return self.finish()

    def start(self, requests: Sequence[ServeRequest]) -> None:
        """Begin a run of ``requests``, none dispatched yet."""
        self._begin()
        for worker in self.workers:
            if worker.durable_dir is not None:
                worker.run = DurableRun(
                    worker.engine, [], worker.durable_dir,
                    snapshot_every=self.snapshot_every,
                    crash=self.crash_plans.get(worker.worker_id))
            else:
                worker.run = worker.engine.start([])
            worker.run_steps = 0
            self.monitor.attach(worker.worker_id)
        self._pending = sorted(requests,
                               key=lambda r: (r.arrival_s, r.request_id))
        self._next_dispatch = 0
        self._iteration = 0

    def step(self) -> bool:
        """One iteration of the lockstep loop: dispatch the arrivals due,
        step the laggard.  ``records`` then holds the iteration's stream;
        ``False`` (and no records) when the fleet is done."""
        pending = self._pending
        step_key = lambda w: (w.run.clock, w.worker_id)  # noqa: E731
        busy = [w for w in self._live() if not w.run.idle]
        if not busy and self._next_dispatch >= len(pending):
            self.records = []
            return False
        self._iteration += 1
        if self._iteration > self.max_steps:
            raise RuntimeError(
                f"fleet did not converge within {self.max_steps} steps")
        # Dispatch every arrival at or before the laggard's clock:
        # placement decisions are made in arrival order, against
        # pool/prefix state no worker has stepped past yet.
        frontier = min((w.run.clock for w in busy),
                       default=pending[self._next_dispatch].arrival_s
                       if self._next_dispatch < len(pending) else 0.0)
        while self._next_dispatch < len(pending) \
                and pending[self._next_dispatch].arrival_s <= frontier:
            self._dispatch(pending[self._next_dispatch])
            self._next_dispatch += 1
        busy = [w for w in self._live() if not w.run.idle]
        healthy_busy = [w for w in busy if self._worker_state(w)
                        is WorkerState.HEALTHY]
        suspect_busy = [w for w in busy if w not in healthy_busy]
        if healthy_busy:
            self._guarded_step(min(healthy_busy, key=step_key))
            # Hedged probe: a suspect is stepped off the critical path so
            # it can prove recovery (or finish failing) without the
            # healthy laggard ever waiting on it.
            if suspect_busy and self._iteration % PROBE_EVERY == 0:
                self._guarded_step(min(suspect_busy, key=step_key))
        elif suspect_busy:
            # Only suspects hold live work: probing the suspect laggard
            # is the sole way forward.
            self._guarded_step(min(suspect_busy, key=step_key))
        self.records = self.log.drain()
        return True

    def finish(self) -> FleetReport:
        """End the run; its report is the stream's folds plus what no
        record carries (worker reports, registries, pool counters)."""
        self._affinity.clear()
        report = self.log.report
        report.workers = [w.run.finish() for w in self.workers]
        # Worker registries hold worker counters; ``fleet.dispatched``
        # is in the router's bundle (which may be the process default).
        for worker in self.workers:
            report.metrics.merge(worker.obs.metrics)
            report.prefix_hits += worker.pool.prefix_hits
            report.prefix_misses += worker.pool.prefix_misses
            report.shared_blocks_peak += worker.pool.shared_blocks_peak
        return report

    # -- placement ------------------------------------------------------------

    def _dispatch(self, request: ServeRequest) -> None:
        worker = self._place(request)
        if request.session is not None:
            self._affinity[request.session] = worker
        self.obs.metrics.counter("fleet.dispatched").inc()
        worker.run.inject(request)
        self._carry(worker)

    def _worker_state(self, worker: FleetWorker) -> WorkerState:
        return self.monitor.state_or_healthy(worker.worker_id)

    def _live(self, exclude: Optional[FleetWorker] = None
              ) -> List[FleetWorker]:
        """The workers that are not FAILED (and not ``exclude``)."""
        return [w for w in self.workers if w is not exclude
                and self._worker_state(w) is not WorkerState.FAILED]

    def _place(self, request: ServeRequest) -> FleetWorker:
        """Pick the worker to serve ``request`` (see module docstring).

        SUSPECT workers are drained — they keep their sessions (affinity
        still binds, suspicion usually self-heals) but take no *new*
        placements while any healthy worker exists; FAILED workers take
        nothing.
        """
        home = self._affinity.get(request.session)
        if home is not None \
                and self._worker_state(home) is not WorkerState.FAILED:
            return home
        return self._best_worker(request)

    def _best_worker(self, request: ServeRequest,
                     exclude: Optional[FleetWorker] = None,
                     admit_now: bool = False) -> Optional[FleetWorker]:
        """The live worker (never ``exclude``) ranked first for
        ``request``: (HEALTHY, longest cached prefix, free score, lowest
        id) over the workers that could ever hold the session.  Both fit
        questions are the worker scheduler's own admission rule: pool
        blocks and, with a timing model's ``admits``, the modeled
        system's capacity.

        With ``admit_now`` only workers that fit the session right now
        beside their running sessions qualify, and ``None`` means nobody
        does — which keeps migration from bouncing a session between two
        saturated workers.  Otherwise a session nobody can ever hold still
        lands on the best live worker and sheds through its
        impossible-fit admission path.
        """
        live = self._live(exclude)
        fits = [w for w in live if w.run.scheduler.could_fit(request)]
        if admit_now:
            fits = [w for w in fits if w.run.scheduler.fits_now(request)]
            if not fits:
                return None
        return max(fits or live, key=lambda w: (
            self._worker_state(w) is WorkerState.HEALTHY,
            w.pool.longest_prefix_tokens(request.prompt),
            self._free_score(w),
            -w.worker_id))

    def _free_score(self, worker: FleetWorker) -> int:
        """Free blocks net of prompt blocks promised to queued work."""
        pool = worker.pool
        queued = list(worker.run.scheduler.queued) + worker.run.pending
        promised = sum(pool.blocks_for_tokens(len(r.resume_tokens))
                       for r in queued)
        return pool.n_free - promised

    # -- stepping under the bounded-wait guard --------------------------------

    def _guarded_step(self, worker: FleetWorker) -> None:
        """Step ``worker`` under the bounded-wait guard: observed latency
        (wall plus the gray plan's simulated stall; an infinite stall
        means the step never ran) feeds the health monitor; a FAILED
        verdict triggers failover.  A killed durable worker is rebuilt in
        place — fresh engine, state from its durable directory, sessions
        kept: the affinity map stays valid because the
        :class:`FleetWorker` (its sessions' home) does not change, and
        its verdict and strikes reset while its latency window stays."""
        worker.run_steps += 1
        plan = self.gray_plans.get(worker.worker_id)
        stall = 0.0 if plan is None else plan.stall_at(worker.run_steps)
        t0 = time.perf_counter()
        if not math.isinf(stall):
            try:
                worker.run.step()
            except WorkerKilledError:
                self._carry(worker)  # the step ran; the kill came after
                if not self._rebuild(worker):
                    raise  # nothing to restore from: the kill is fatal
                self.monitor.reset(worker.worker_id)
                self.log.emit("restore", worker=worker.worker_id)
                return  # recovery time is not a step-latency sample
            self._migrate_preempted(worker, self._carry(worker))
        observed = time.perf_counter() - t0 + stall
        _, after = self.monitor.observe(worker.worker_id, observed)
        if after is WorkerState.FAILED:
            self._fail_worker(worker, observed_s=observed)

    # -- recovery: rebuild, and failover = fence -> rebuild -> drain ----------

    def _rebuild(self, worker: FleetWorker) -> bool:
        """Recover ``worker``'s durable directory (newest verifiable
        snapshot + WAL suffix) into a fresh engine from its factory.

        ``False`` — and the worker untouched — when it is not durable or
        holds no verifiable snapshot.
        """
        if worker.engine_factory is None or worker.durable_dir is None:
            return False
        engine = worker.engine_factory()
        try:
            run, stats = recover(worker.durable_dir, engine,
                                 snapshot_every=self.snapshot_every)
        except SnapshotCorruptError:
            return False
        worker.engine, worker.run, worker.run_steps = engine, run, 0
        self.recoveries.append(stats)
        return True

    def _fail_worker(self, worker: FleetWorker,
                     observed_s: float = 0.0) -> None:
        """Fail ``worker`` over, once the monitor has ruled it FAILED:
        fence, rebuild, and ship every live session to the best sibling.

        The fence makes it true failover — the wedged run's unflushed
        records never land, exactly as if the process were unreachable.
        Without a verifiable snapshot (or a durable dir at all) the
        sessions recompute-migrate off the fenced in-memory run instead.
        Either way departures are exactly-once: the rebuild applied every
        departure its log holds, so the drain never sees those sessions.
        """
        if not self._live(exclude=worker):
            deadline = self.monitor.health[worker.worker_id].deadline_s()
            raise WorkerStalledError(
                f"worker {worker.worker_id} stalled ({observed_s:.3f}s "
                f"step vs {deadline:.3f}s deadline) with no live sibling "
                "to fail over to",
                worker_id=worker.worker_id, deadline_s=deadline,
                observed_s=observed_s)
        t0 = time.perf_counter()
        if isinstance(worker.run, DurableRun):
            worker.run.fence()
        recovered = self._rebuild(worker)
        self._drain(worker)
        self.log.emit("failover", worker=worker.worker_id,
                      recovered=recovered,
                      latency_s=time.perf_counter() - t0)

    def _drain(self, victim: FleetWorker) -> None:
        """Move every live session off ``victim``'s run to its siblings."""
        run = victim.run
        for request in list(run.scheduler.running) + run.scheduler.queued \
                + run.pending:
            self._relocate(victim, request,
                           self._best_worker(request, exclude=victim),
                           "failover")

    # -- migration ------------------------------------------------------------

    def _carry(self, worker: FleetWorker) -> List[Record]:
        """Write what ``worker``'s run last wrote to the fleet's stream,
        tagged with its id; returns those records."""
        records = worker.run.records
        for record in records:
            self.log.append(record._replace(worker=worker.worker_id))
        return records

    def _migrate_preempted(self, source: FleetWorker,
                           records: List[Record]) -> None:
        """Offer each session ``source``'s step ``records`` preempted
        (requeued there) to a sibling that can admit it now; within its
        budget, :meth:`_relocate` moves it (see module docstring)."""
        moves = self.log.report.moves
        for record in records:
            if record.kind != "preempt" or moves.get(
                    record.data["rid"], 0) >= self.max_migrations:
                continue
            target = self._best_worker(record.request, exclude=source,
                                       admit_now=True)
            if target is not None:
                self._relocate(source, record.request, target, "capacity")

    def _relocate(self, source: FleetWorker, request: ServeRequest,
                  target: FleetWorker, reason: str) -> None:
        """Move a session from ``source`` to ``target`` between steps, for
        ``reason`` (``capacity`` or ``failover``).

        Write-ahead order: the departure is recorded (and, on a durable
        source, synced) before the target is told.
        """
        source.run.note_departure(request)
        self._carry(source)
        # The relocated session cannot restart before the moment the
        # source released it; events keep the original arrival for TTFT
        # accounting.
        request.arrival_s = max(request.arrival_s, source.run.clock)
        if request.session is not None:
            self._affinity[request.session] = target
        self.log.emit("migrate", request, source=source.worker_id,
                      target=target.worker_id, reason=reason)
        target.run.inject(request)
        self._carry(target)
