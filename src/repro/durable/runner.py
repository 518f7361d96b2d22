"""Durable stepping loop and crash recovery for a serving engine.

:class:`DurableRun` *is* an :class:`~repro.serve.engine.EngineRun`; it
overrides only what durability adds, the two mechanisms snapshots alone
cannot provide:

- a **write-ahead log** of everything that happens between snapshots.
  True *inputs* (``inject`` of a dispatched/migrated request, ``depart``
  of a migrated-away one) are force-synced before the run acts on them —
  the write-ahead discipline — because they cannot be re-derived.
  *Execution* is logged as one ``token`` record per request that emitted
  in the step (``EngineRun.emitted``) plus a ``step`` marker carrying
  the clock, fsync-batched: the engine is deterministic (argmax
  sampling, seeded fault RNG), so a lost unsynced tail regenerates
  identically on replay.  Replay therefore **re-executes** each logged
  step and *verifies* every token (and, under analytic timing, the
  clock) against the log, raising
  :class:`~repro.errors.ReplayDivergenceError` on any mismatch — the WAL
  is a redo/verification log, not an apply log.
- **periodic chain-hashed snapshots** (every ``snapshot_every`` steps,
  plus a step-0 baseline so recovery is always possible) with the last
  ``KEEP_SNAPSHOTS`` retained, so a snapshot torn by the crash itself
  still leaves a valid predecessor to fall back to.

A fresh log owns its directory: a :class:`DurableRun` that begins one
first deletes the snapshots (and torn ``.tmp`` files) any earlier run
left there.  Every run writes the default epoch, so a leftover snapshot
would otherwise sort after the new baseline, prune it, and be what a
recovery restores — someone else's run, without an error.

:func:`recover` inverts the process: newest verifiable snapshot → open
the WAL (resume it, or restart it when stale) → a :class:`DurableRun`
around that log on a fresh engine →
:func:`~repro.durable.snapshot.restore_run` into it → replay the WAL
suffix (records with LSN past the snapshot's) step-bucket by
step-bucket.  Replay calls the *base-class* ``inject`` / ``step`` —
those inputs and steps are in the log already.  Records after the last
``step`` marker belong to a step the dying process never completed
logging; its inputs are applied and the step itself simply re-executes
after recovery — re-logging a duplicate of the partial bucket, which is
benign because replay verification is idempotent.

Exactly-once migration: a logged ``depart`` means the pre-crash router
accepted the session and its target owns it, so it must not be migrated
again.  Replay turns every ``depart`` record — in a completed bucket or
in the unterminated tail alike — into a *pending departure*; when the
re-executed step offers that session, :meth:`DurableRun.offer_migration`
consumes the pending departure without consulting the router or
re-logging.  A completed bucket whose departures are still pending after
its step did not reproduce the logged run.

A stale WAL (epoch differs from every snapshot's — mixed durable dirs,
operator error) is never replayed: the file is set aside as
``wal.log.stale``, a fresh log is begun, and a new snapshot is written
immediately so the directory is self-consistent again.  Snapshots are
self-contained, so a solo run recovered this way is still bit-identical;
only unreplayable cross-worker injects in the stale suffix (none, for a
solo run) would be lost.
"""

from __future__ import annotations

import dataclasses
import pathlib
import time
from typing import List, Optional, Sequence, Set, Tuple

from repro.errors import (ReplayDivergenceError, SnapshotCorruptError,
                          WorkerKilledError)
from repro.serve.engine import EngineRun, ServeEngine
from repro.serve.events import ServeReport
from repro.serve.scheduler import ServeRequest
from repro.system.faults import CrashPlan
from repro.durable.snapshot import (build_request, read_snapshot,
                                    restore_run, serialize_request,
                                    write_snapshot)
from repro.durable.wal import (WalRecord, WriteAheadLog, _encode,
                               iter_step_buckets, read_wal)

WAL_NAME = "wal.log"
#: Snapshots retained: the newest, and one to fall back to when the crash
#: tore it.
KEEP_SNAPSHOTS = 2


def _token_record(request: ServeRequest) -> dict:
    """The ``token`` record of a request that just emitted."""
    return {"rid": request.request_id, "index": len(request.outputs) - 1,
            "token": int(request.outputs[-1])}


class DurableRun(EngineRun):
    """An :class:`EngineRun` with WAL + snapshot durability (module doc).

    Args:
        wal: an open log to continue (what :func:`recover` passes: the
            run then starts empty, to be restored into); ``None`` begins
            a fresh log, deletes every snapshot already in ``directory``
            and writes the step-0 baseline snapshot.
    """

    def __init__(self, engine: ServeEngine,
                 requests: Sequence[ServeRequest],
                 directory: pathlib.Path, *,
                 snapshot_every: int = 8, fsync_every: int = 8,
                 crash: Optional[CrashPlan] = None,
                 epoch: str = "epoch-0",
                 wal: Optional[WriteAheadLog] = None) -> None:
        if snapshot_every < 1:
            raise ValueError("snapshot_every must be >= 1")
        super().__init__(engine, requests)
        self.directory = pathlib.Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self.snapshot_every = snapshot_every
        self.crash = crash
        self.epoch = epoch
        self.steps = 0
        #: ids whose ``depart`` is in the log but which this run, restored
        #: from before it, still holds: delivered to their target already.
        self.pending_departures: Set[int] = set()
        self.fenced = False
        self.wal = wal
        if wal is None:
            # A fresh log owns its directory: a previous run's snapshots
            # would sort after this baseline, so pruning would delete the
            # baseline and a recovery would restore that other run.
            for stale in self.directory.glob("snapshot-*.bin*"):
                stale.unlink()
            self.wal = WriteAheadLog(self.directory / WAL_NAME, epoch,
                                     fsync_every)
            self._snapshot()

    # -- durable inputs -------------------------------------------------------

    def _log_input(self, kind: str, data: dict) -> None:
        """Write-ahead: an input is on disk before the run acts on it."""
        if self.fenced:
            return
        self.wal.append(kind, data)
        self.wal.sync()
        self._count("recovery.wal_records")

    def inject(self, request: ServeRequest) -> None:
        """Log-then-apply a new arrival."""
        if request.cache is not None:
            raise ValueError("cannot inject a request with a live cache "
                             "(sessions migrate detached)")
        self._log_input("inject", {"request": serialize_request(
            request, include_cache=False)})
        super().inject(request)

    def note_departure(self, request: ServeRequest) -> bool:
        """Log-then-apply a migration departure, exactly once.

        A *pending* departure was logged, and the session delivered to
        its target, before the crash this run was recovered from: it is
        consumed without re-logging and the answer is ``False`` — the
        caller has nothing left to deliver.
        """
        rid = request.request_id
        pending = rid in self.pending_departures
        if pending:
            self.pending_departures.discard(rid)
        else:
            self._log_input("depart", {"rid": rid})
        super().note_departure(request)
        return not pending

    def offer_migration(self, request: ServeRequest) -> bool:
        """A pending departure is honored without asking the router."""
        if request.request_id in self.pending_departures:
            self.note_departure(request)
            return True
        return super().offer_migration(request)

    # -- the durable step -----------------------------------------------------

    def step(self) -> bool:
        """One engine step, logged; snapshots and crashes on schedule."""
        alive = super().step()
        for request in self.emitted:
            self.wal.append("token", _token_record(request))
        self.steps += 1
        self.wal.append("step", {"step": self.steps, "clock": self.clock})
        self._count("recovery.wal_records", len(self.emitted) + 1)
        crash = self.crash
        if crash is not None and self.steps >= crash.kill_at_step:
            self.crash = None
            self._die(crash)
        if self.steps % self.snapshot_every == 0:
            self._snapshot()
        return alive

    def finish(self) -> ServeReport:
        self.wal.sync()
        return super().finish()

    def fence(self) -> None:
        """Cut a wedged run off from its durable directory: unflushed
        records never land, the log is closed, and whatever the run is
        still told (the departures of a failover drain) is not logged."""
        self.wal.drop_unsynced()
        self.wal.close()
        self.fenced = True

    # -- snapshots ------------------------------------------------------------

    def _snapshot(self) -> pathlib.Path:
        self.wal.sync()
        path = self.directory / f"snapshot-{self.steps:08d}.bin"
        with self.engine.obs.tracer.span("recovery.snapshot",
                                         step=self.steps):
            write_snapshot(path, self, epoch=self.epoch,
                           lsn=self.wal.last_lsn, step=self.steps)
        self._count("recovery.snapshots")
        for old in sorted(
                self.directory.glob("snapshot-*.bin"))[:-KEEP_SNAPSHOTS]:
            old.unlink()
        return path

    # -- injected death -------------------------------------------------------

    def _die(self, crash: CrashPlan) -> None:
        if crash.kind == "kill_after_fsync":
            self.wal.sync()
        elif crash.kind == "kill_before_fsync":
            self.wal.drop_unsynced()
        elif crash.kind == "torn_snapshot":
            path = self._snapshot()
            data = path.read_bytes()
            keep = max(16, int(len(data) * crash.torn_fraction))
            path.write_bytes(data[:keep])
        elif crash.kind == "stale_wal":
            self.wal.sync()
            _mark_wal_stale(self.directory / WAL_NAME)
        raise WorkerKilledError(
            f"injected crash ({crash.kind}) after step {self.steps}",
            step=self.steps, kind=crash.kind)

    def _count(self, name: str, n: int = 1) -> None:
        metrics = self.engine.obs.metrics
        if metrics.enabled:
            metrics.counter(name).inc(n)


def _mark_wal_stale(path: pathlib.Path) -> None:
    """Rewrite the WAL header with a foreign epoch (operator-error sim)."""
    lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
    lines[0] = _encode(0, "begin", {"epoch": "foreign-epoch",
                                    "version": 1})
    path.write_text("".join(lines), encoding="utf-8")


# -- recovery -----------------------------------------------------------------

@dataclasses.dataclass
class RecoveryStats:
    """What a :func:`recover` call loaded, replayed, and measured."""

    snapshot_path: str = ""
    snapshot_step: int = 0
    snapshot_lsn: int = 0
    snapshot_load_s: float = 0.0
    replay_s: float = 0.0
    steps_replayed: int = 0
    tokens_replayed: int = 0
    snapshots_skipped: int = 0
    stale_wal: bool = False
    wal_torn: bool = False


def _replay(run: DurableRun, suffix: List[WalRecord],
            stats: RecoveryStats) -> None:
    """Re-execute the logged steps of ``suffix`` on the restored ``run``,
    verifying each against the log.

    Base-class ``inject`` / ``step``: these inputs and steps are in the
    log already.  A ``depart`` becomes a pending departure, consumed when
    its step re-offers the session.
    """
    for bucket, marker in iter_step_buckets(suffix):
        for record in bucket:
            if record.kind == "inject":
                EngineRun.inject(run, build_request(record.data["request"]))
            elif record.kind == "depart":
                run.pending_departures.add(record.data["rid"])
        if marker is None:
            # Unterminated tail: inputs applied above; the step itself
            # re-executes (and re-logs) after recovery.
            break
        step = marker.data["step"]
        EngineRun.step(run)
        stats.steps_replayed += 1
        emitted = {r.request_id: _token_record(r) for r in run.emitted}
        for record in bucket:
            if record.kind != "token":
                continue
            if emitted.get(record.data["rid"]) != record.data:
                raise ReplayDivergenceError(
                    f"replayed step {step} did not reproduce token "
                    f"{record.data['index']} of request "
                    f"{record.data['rid']} (logged {record.data['token']})")
            stats.tokens_replayed += 1
        if run.pending_departures:
            raise ReplayDivergenceError(
                f"logged departures {sorted(run.pending_departures)} were "
                f"not re-offered during replay of step {step}")
        if run.engine.timing is not None \
                and run.clock != marker.data["clock"]:
            raise ReplayDivergenceError(
                f"replayed clock {run.clock!r} != logged "
                f"{marker.data['clock']!r} at step {step}")
    run.steps = stats.snapshot_step + stats.steps_replayed


def recover(directory: pathlib.Path, engine: ServeEngine, *,
            snapshot_every: int = 8, fsync_every: int = 8
            ) -> Tuple[DurableRun, RecoveryStats]:
    """Restore a durable directory into a fresh ``engine``.

    Loads the newest snapshot that passes chain-hash verification
    (corrupt/torn ones are skipped — the step-0 baseline guarantees a
    floor), replays and *verifies* the WAL suffix by deterministic
    re-execution, and returns a :class:`DurableRun` ready to continue
    stepping, plus :class:`RecoveryStats` timings.
    """
    directory = pathlib.Path(directory)
    stats = RecoveryStats()
    tracer = engine.obs.tracer
    metrics = engine.obs.metrics

    t0 = time.perf_counter()
    with tracer.span("recovery.restore", directory=str(directory)):
        for path in sorted(directory.glob("snapshot-*.bin"), reverse=True):
            try:
                meta, arenas = read_snapshot(path)
            except SnapshotCorruptError:
                stats.snapshots_skipped += 1
                continue
            stats.snapshot_path = str(path)
            break
        else:
            raise SnapshotCorruptError(
                f"no verifiable snapshot in {directory}")
    stats.snapshot_step = int(meta["step"])
    stats.snapshot_lsn = int(meta["lsn"])
    stats.snapshot_load_s = time.perf_counter() - t0

    # -- the log: resume it, or restart it when stale or missing --------------
    wal_path = directory / WAL_NAME
    epoch = meta["epoch"]
    suffix = []
    wal = None
    if wal_path.exists():
        wal_epoch, records, end_offset, stats.wal_torn = read_wal(wal_path)
        if wal_epoch != epoch:
            stats.stale_wal = True
            wal_path.replace(directory / (WAL_NAME + ".stale"))
        else:
            suffix = [r for r in records if r.lsn > stats.snapshot_lsn]
            wal = WriteAheadLog.resume(
                wal_path, epoch, records[-1].lsn if records else 0,
                end_offset, fsync_every)
    fresh_wal = wal is None
    if fresh_wal:
        wal = WriteAheadLog(wal_path, epoch, fsync_every)
    run = DurableRun(engine, (), directory, snapshot_every=snapshot_every,
                     fsync_every=fsync_every, epoch=epoch, wal=wal)
    try:
        t0 = time.perf_counter()
        with tracer.span("recovery.restore", snapshot=stats.snapshot_path):
            restore_run(run, meta, arenas)
        stats.snapshot_load_s += time.perf_counter() - t0
        t0 = time.perf_counter()
        with tracer.span("recovery.replay", records=len(suffix)):
            _replay(run, suffix, stats)
        stats.replay_s = time.perf_counter() - t0
    except BaseException:
        wal.close()     # a failed recovery leaves no run to own the log
        raise

    if fresh_wal:
        # Re-anchor: the new log starts at LSN 0, so write a snapshot
        # that references it (older snapshots point into the discarded
        # epoch's LSN space).
        run._snapshot()
    metrics.counter("recovery.restores").inc()
    metrics.counter("recovery.steps_replayed").inc(stats.steps_replayed)
    metrics.counter("recovery.tokens_replayed").inc(stats.tokens_replayed)
    return run, stats
