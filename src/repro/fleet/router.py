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

Migration is cross-worker preemption: the source run detaches the victim
exactly as local preemption does (blocks freed, state QUEUED, generated
tokens kept) and offers it to the router's handler, which relocates it
(:meth:`FleetRouter._relocate`: departure recorded on the source, a
``migrate`` record on the router's own log, then injected into the
target) to a worker that can admit it *now*; there the standard resume
path re-prefills ``prompt + outputs[:-1]`` and replays the last token —
bit-identical to an uninterrupted run.  A per-request budget of
``capacity`` migrations (the fold of its ``migrate`` records) prevents
ping-pong; a request over its budget is re-queued (or shed) locally by
the source.

Recovery is one routine, :meth:`FleetRouter._rebuild`: a fresh engine
from the worker's factory, its durable directory recovered into it.  A
*killed* worker is rebuilt in place and keeps its sessions.  A FAILED
worker (see :mod:`repro.fleet.resilience`) is *failed over*: fence →
rebuild → drain every live session to the best sibling; when rebuild has
nothing to load (no durable directory, no verifiable snapshot) the drain
runs off the fenced in-memory run instead — recompute migration.

Gray failures are router input, not worker behaviour: a worker's
:class:`~repro.system.faults.GrayFailurePlan` is read at every guarded
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
from repro.llm.model import Transformer
from repro.obs import MetricsRegistry, Obs, Tracer, resolve_obs
from repro.serve.engine import EngineRun, ServeEngine, TimingModel
from repro.serve.events import RecordLog
from repro.serve.paged_kv import PagedKVPool
from repro.serve.scheduler import ServeRequest, SloPolicy
from repro.system.faults import CrashPlan, GrayFailurePlan

from repro.fleet.report import FleetReport
from repro.fleet.resilience import HealthMonitor, HealthPolicy, WorkerState


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
                prefill_block_size: int = 256,
                max_steps: int = 1_000_000,
                durable_root: Optional[pathlib.Path] = None) -> FleetWorker:
    """Build a worker with its own prefix-cached pool and metrics registry.

    Every worker gets a private enabled :class:`MetricsRegistry` (tracing
    off) so per-worker counters merge associatively into the fleet report;
    ``timing_factory`` receives that bundle so analytic timing attribution
    lands in the owning worker's registry.

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
                           prefill_block_size=prefill_block_size,
                           max_steps=max_steps, obs=obs)

    durable_dir = None if durable_root is None \
        else pathlib.Path(durable_root) / f"worker{worker_id}"
    return FleetWorker(worker_id, build(), engine_factory=build,
                       durable_dir=durable_dir)


class FleetRouter:
    """Route requests over N workers; shed/migrate on pool exhaustion.

    Args:
        workers: the serving shards (distinct pools; same model family
            and backend family, or prefix sharing would not be valid).
        max_migrations: per-request cross-worker relocation budget; a
            request over budget falls back to the source worker's local
            preemption/shed handling.
        obs: router-level bundle for fleet counters (``fleet.dispatched``,
            and the ``fleet.migrations``, ``fleet.failovers`` and
            ``fleet.worker_restores`` families sunk from the router's
            ``migrate`` / ``failover`` / ``restore`` records); worker
            metrics live in each worker's own registry.
        max_steps: hard bound on total worker steps across the run.
        gray_plans: per-worker :class:`GrayFailurePlan` schedules, read
            by the guarded step so their simulated stalls drive the real
            detection path.
        health: suspicion-model knobs (:class:`HealthPolicy` defaults
            when ``None`` — monitoring is always on; with wall steps in
            the milliseconds the deadline floor keeps it inert).
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
        self.monitor = HealthMonitor(health)
        self._affinity: Dict[str, FleetWorker] = {}
        #: the router's record stream: one ``migrate`` per relocation, one
        #: ``failover`` per failed-over worker, one ``restore`` per killed
        #: worker rebuilt in place.
        self.log = RecordLog(self.obs.metrics)
        self.recoveries: List[RecoveryStats] = []

    # -- the fleet loop -------------------------------------------------------

    def run(self, requests: Sequence[ServeRequest]) -> FleetReport:
        """Serve ``requests`` across the fleet; returns the fleet report."""
        for worker in self.workers:
            if worker.durable_dir is not None:
                worker.run = DurableRun(
                    worker.engine, [], worker.durable_dir,
                    snapshot_every=self.snapshot_every,
                    crash=self.crash_plans.get(worker.worker_id))
            else:
                worker.run = worker.engine.start([])
            worker.run_steps = 0
            worker.run.migrate_handler = self._handler_for(worker)
            self.monitor.attach(worker.worker_id, worker.obs.metrics)
        pending = sorted(requests,
                         key=lambda r: (r.arrival_s, r.request_id))
        next_dispatch = 0
        probe_every = self.monitor.policy.probe_every
        step_key = lambda w: (w.run.clock, w.worker_id)  # noqa: E731
        try:
            for iteration in range(1, self.max_steps + 1):
                busy = [w for w in self._live() if not w.run.idle]
                if not busy and next_dispatch >= len(pending):
                    break
                # Dispatch every arrival at or before the laggard's clock:
                # placement decisions are made in arrival order, against
                # pool/prefix state no worker has stepped past yet.
                frontier = min((w.run.clock for w in busy),
                               default=pending[next_dispatch].arrival_s
                               if next_dispatch < len(pending) else 0.0)
                while next_dispatch < len(pending) \
                        and pending[next_dispatch].arrival_s <= frontier:
                    self._dispatch(pending[next_dispatch])
                    next_dispatch += 1
                busy = [w for w in self._live() if not w.run.idle]
                if not busy:
                    continue
                healthy_busy = [w for w in busy if self._worker_state(w)
                                is WorkerState.HEALTHY]
                suspect_busy = [w for w in busy if w not in healthy_busy]
                if healthy_busy:
                    self._guarded_step(min(healthy_busy, key=step_key))
                    # Hedged probe: a suspect is stepped off the critical
                    # path so it can prove recovery (or finish failing)
                    # without the healthy laggard ever waiting on it.
                    if suspect_busy and iteration % probe_every == 0:
                        self._guarded_step(min(suspect_busy, key=step_key))
                else:
                    # Only suspects hold live work: probing the suspect
                    # laggard is the sole way forward.
                    self._guarded_step(min(suspect_busy, key=step_key))
            else:
                raise RuntimeError(
                    f"fleet did not converge within {self.max_steps} steps")
        finally:
            for worker in self.workers:
                worker.run.migrate_handler = None
        return self._report()

    # -- placement ------------------------------------------------------------

    def _dispatch(self, request: ServeRequest) -> None:
        worker = self._place(request)
        if request.session is not None:
            self._affinity[request.session] = worker
        metrics = self.obs.metrics
        if metrics.enabled:
            metrics.counter("fleet.dispatched").inc()
            metrics.counter(
                f"fleet.worker{worker.worker_id}.dispatched").inc()
        worker.run.inject(request)

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
        :class:`FleetWorker` (its sessions' home) does not change."""
        worker.run_steps += 1
        plan = self.gray_plans.get(worker.worker_id)
        stall = 0.0 if plan is None else plan.stall_at(worker.run_steps)
        t0 = time.perf_counter()
        if not math.isinf(stall):
            try:
                worker.run.step()
            except WorkerKilledError:
                if not self._rebuild(worker):
                    raise  # nothing to restore from: the kill is fatal
                self.monitor.attach(worker.worker_id, worker.obs.metrics)
                self.log.emit("restore", worker=worker.worker_id)
                return  # recovery time is not a step-latency sample
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
        # Health instruments (fleet.*) are router-owned, never replayed:
        # transplant them across the engine swap so the latency baseline
        # and suspicion counters survive into the merged fleet report.
        engine.obs.metrics.merge(worker.obs.metrics, prefix="fleet.")
        run.migrate_handler = self._handler_for(worker)
        worker.engine, worker.run, worker.run_steps = engine, run, 0
        self.recoveries.append(stats)
        return True

    def _fail_worker(self, worker: FleetWorker,
                     observed_s: float = 0.0) -> None:
        """Fail ``worker`` over: fence, rebuild, and ship every live
        session to the best sibling.

        The fence makes it true failover — the wedged run's unflushed
        records never land, exactly as if the process were unreachable.
        Without a verifiable snapshot (or a durable dir at all) the
        sessions recompute-migrate off the fenced in-memory run instead.
        Either way departures are exactly-once: pending departures
        already delivered pre-failure are consumed, not re-shipped.
        """
        self.monitor.mark_failed(worker.worker_id)
        if not self._live(exclude=worker):
            deadline = self.monitor.deadline_s(worker.worker_id)
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
        wmetrics = worker.obs.metrics
        wmetrics.counter("fleet.failovers").inc()
        wmetrics.counter("fleet.failover_recovered" if recovered
                         else "fleet.failover_recomputed").inc()

    def _drain(self, victim: FleetWorker) -> None:
        """Move every live session off ``victim``'s run to its siblings."""
        run = victim.run
        scheduler = run.scheduler
        sessions: List[ServeRequest] = []
        for request in list(scheduler.running):
            scheduler.detach(request)
            sessions.append(request)
        sessions.extend(scheduler.drain_queued())
        sessions.extend(run.pending)
        for request in sessions:
            self._relocate(victim, request,
                           self._best_worker(request, exclude=victim),
                           "failover")

    # -- migration ------------------------------------------------------------

    def _relocate(self, source: FleetWorker, request: ServeRequest,
                  target: FleetWorker, reason: str) -> bool:
        """Move a detached session from ``source`` to ``target`` for
        ``reason`` (``capacity`` or ``failover``).

        Write-ahead order: the departure is recorded (and, on a durable
        source, synced) before the target is told.  ``False`` when the
        source run says there is nothing to deliver — the session reached
        its target before the crash the run was recovered from.
        """
        if not source.run.note_departure(request):
            return False
        # The relocated session cannot restart before the moment the
        # source released it; events keep the original arrival for TTFT
        # accounting.
        request.arrival_s = max(request.arrival_s, source.run.clock)
        if request.session is not None:
            self._affinity[request.session] = target
        self.log.emit("migrate", request, source=source.worker_id,
                      target=target.worker_id, reason=reason)
        target.run.inject(request)
        return True

    def _handler_for(self, source: FleetWorker):
        """The migrate hook installed on ``source``'s run.

        Receives sessions the source would otherwise preempt-requeue,
        already detached (blocks freed, state QUEUED).  Returns ``True``
        after relocating the session to a sibling that can admit it now;
        ``False`` keeps it on the source (local requeue).
        """
        def handler(request: ServeRequest) -> bool:
            if self._migrations("capacity", request.request_id) \
                    >= self.max_migrations:
                return False
            target = self._best_worker(request, exclude=source,
                                       admit_now=True)
            if target is None:
                return False
            return self._relocate(source, request, target, "capacity")

        return handler

    def _migrations(self, reason: str, rid: Optional[int] = None) -> int:
        """The fold of the log's ``migrate`` records for ``reason`` (of
        request ``rid`` only, when given)."""
        return sum(r.kind == "migrate" and r.data["reason"] == reason
                   and rid in (None, r.data["rid"])
                   for r in self.log.records)

    # -- reduction ------------------------------------------------------------

    def _report(self) -> FleetReport:
        reports = [w.run.finish() for w in self.workers]
        # Per-worker registries are private, so the associative merge
        # reduces exactly the fleet's own instruments; router-level
        # counters (fleet.dispatched, fleet.migrations) stay in the
        # router's bundle, which may be the shared process default.
        merged = MetricsRegistry(enabled=True)
        for worker in self.workers:
            merged.merge(worker.obs.metrics)
        return FleetReport(
            workers=reports,
            metrics=merged,
            migrations=self._migrations("capacity"),
            prefix_hits=sum(w.pool.prefix_hits for w in self.workers),
            prefix_misses=sum(w.pool.prefix_misses for w in self.workers),
            shared_blocks_peak=sum(w.pool.shared_blocks_peak
                                   for w in self.workers),
            failovers=self.log.counts.get("failover", 0),
            failover_sessions=self._migrations("failover"),
            failover_latency_s=[r.data["latency_s"] for r in self.log.records
                                if r.kind == "failover"],
            worker_suspects=self.monitor.suspect_transitions,
            worker_restores=self.log.counts.get("restore", 0),
        )
