"""Durable stepping loop and crash recovery for a serving engine.

:class:`DurableRun` *is* an :class:`~repro.serve.engine.EngineRun`; it
overrides only what durability adds, the two mechanisms snapshots alone
cannot provide:

- a **write-ahead log**, the sink of the run's record stream
  (:mod:`repro.serve.events`) in emission order, a ``step`` record
  closing each step's bucket.  True *inputs* (``inject`` of a
  dispatched/migrated request, ``depart`` of a migrated-away one) arrive
  between steps, so they open a bucket, and are force-synced before the
  run acts on them — the write-ahead discipline — because they cannot be
  re-derived.  Everything else is *execution*,
  fsync-batched: the engine is deterministic (argmax sampling, keyed
  faults), so a lost unsynced tail regenerates identically on replay.
  Replay therefore **re-executes** each logged step and *verifies* every
  re-executed record of its bucket against the log (times only under
  analytic timing), raising :class:`~repro.errors.ReplayDivergenceError`
  on any mismatch — the WAL is a redo/verification log, not an apply log.
- **periodic chain-hashed snapshots** (every ``snapshot_every`` steps,
  plus a step-0 baseline so recovery is always possible) with the last
  ``KEEP_SNAPSHOTS`` retained, so a snapshot torn by the crash itself
  still leaves a valid predecessor to fall back to (recovery deletes the
  ones it cannot verify, so retention counts only loadable snapshots).

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
step-bucket.  Replay calls the *base-class* ``inject`` /
``note_departure`` / ``step`` — those inputs and steps are in the log
already.  Records after the last
``step`` marker belong to a step the dying process never completed
logging; its inputs are applied and the step re-executes after recovery,
checking the records the log already holds instead of writing them
again, so every bucket in the log is one whole step.

Exactly-once migration: a departure is an input.  A logged ``depart``
is applied where it was logged, between steps, as an ``inject`` is, so
the recovered run no longer holds the session its target owns.

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
from typing import List, Optional, Sequence, Tuple

from repro.errors import (ReplayDivergenceError, SnapshotCorruptError,
                          WorkerKilledError)
from repro.faults import TORN_FRACTION, CrashPlan
from repro.serve.engine import EngineRun, ServeEngine
from repro.serve.events import INPUT_KINDS, TIME_FIELDS, Record, ServeReport
from repro.serve.scheduler import ServeRequest
from repro.durable.snapshot import (build_request, read_snapshot,
                                    restore_run, serialize_request,
                                    write_snapshot)
from repro.durable.wal import (WAL_VERSION, WalRecord, WriteAheadLog,
                               _encode, iter_step_buckets, read_wal)

WAL_NAME = "wal.log"
#: Snapshots retained: the newest, and one to fall back to when the crash
#: tore it.
KEEP_SNAPSHOTS = 2


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
        #: the records the log already holds for the step being
        #: re-executed (replay, or a step a crash left unfinished), which
        #: :meth:`_write` checks instead of writing.
        self.expected: list = []
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

    # -- the WAL sink; durable inputs -----------------------------------------

    def _write(self, records: List[Record], sync: bool = False) -> None:
        """Append ``records`` in order (an ``inject`` with its request),
        checking each against :attr:`expected` instead while it lasts."""
        if self.fenced:
            return
        for record in records:
            if self.expected and record.kind not in INPUT_KINDS:
                logged = self.expected.pop(0)
                replayed, = _facts([record], self.engine.timing is not None)
                if replayed != logged:
                    raise ReplayDivergenceError(
                        f"re-executed step {self.steps} did not reproduce "
                        f"the log: logged {logged}, replayed {replayed}")
                continue
            data = dict(record.data)
            if record.kind == "inject":
                data["request"] = serialize_request(record.request,
                                                    include_cache=False)
            self.wal.append(record.kind, data)
        if sync:
            self.wal.sync()

    def inject(self, request: ServeRequest) -> None:
        """Write-ahead: the arrival is on disk before the run acts on it."""
        if request.cache is not None:
            raise ValueError("cannot inject a request with a live cache "
                             "(sessions migrate detached)")
        super().inject(request)
        self._write(self.records, sync=True)

    def note_departure(self, request: ServeRequest) -> None:
        """Write-ahead: the departure is on disk before the target is
        told."""
        super().note_departure(request)
        self._write(self.records, sync=True)

    # -- the durable step -----------------------------------------------------

    def step(self) -> bool:
        """One engine step, logged; snapshots and crashes on schedule."""
        alive = super().step()
        self._write(self.records)
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
            keep = max(16, int(len(data) * TORN_FRACTION))
            path.write_bytes(data[:keep])
        elif crash.kind == "stale_wal":
            self.wal.sync()
            _mark_wal_stale(self.directory / WAL_NAME)
        raise WorkerKilledError(
            f"injected crash ({crash.kind}) after step {self.steps}",
            step=self.steps, kind=crash.kind)


def _mark_wal_stale(path: pathlib.Path) -> None:
    """Rewrite the WAL header with a foreign epoch (operator-error sim)."""
    lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
    lines[0] = _encode(0, "begin", {"epoch": "foreign-epoch",
                                    "version": WAL_VERSION})
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


def _apply_inputs(run: DurableRun, records: List[WalRecord]) -> None:
    """Apply logged inputs — base-class ``inject`` and ``note_departure``
    — whose records the log already holds."""
    for record in records:
        if record.kind == "inject":
            EngineRun.inject(run, build_request(record.data["request"]))
        elif record.kind == "depart":
            held = {r.request_id: r for r in run._arrivals}
            EngineRun.note_departure(run, held[record.data["rid"]])


def _facts(records, timed: bool) -> list:
    """The re-executed records of a bucket as ``(kind, data)``, with
    run-clock times only when ``timed`` (analytic timing: they repeat)."""
    return [(r.kind, {k: v for k, v in r.data.items()
                      if timed or k not in TIME_FIELDS})
            for r in records if r.kind not in INPUT_KINDS]


def _replay(run: DurableRun, suffix: List[WalRecord],
            stats: RecoveryStats) -> None:
    """Re-execute the logged steps of ``suffix`` on the restored ``run``,
    verifying each record against the log.

    Base-class ``inject`` / ``step``: these inputs and steps are in the
    log already, and the step's records go through :meth:`DurableRun.
    _write` only to be checked.  An unterminated last bucket has its
    inputs applied and leaves its records expected by the step that
    re-executes after recovery.
    """
    timed = run.engine.timing is not None
    for bucket, marker in iter_step_buckets(suffix):
        _apply_inputs(run, bucket)
        run.expected = _facts(bucket + [marker] if marker else bucket, timed)
        if marker is None:
            break
        stats.tokens_replayed += sum(kind == "token"
                                     for kind, _ in run.expected)
        EngineRun.step(run)
        run._write(run.records)     # both end in a step record: all match
        stats.steps_replayed += 1


def recover(directory: pathlib.Path, engine: ServeEngine, *,
            snapshot_every: int = 8, fsync_every: int = 8
            ) -> Tuple[DurableRun, RecoveryStats]:
    """Restore a durable directory into a fresh ``engine``.

    Loads the newest snapshot that passes chain-hash verification
    (corrupt/torn ones are skipped and deleted — the step-0 baseline
    guarantees a floor), replays and *verifies* the WAL suffix by
    deterministic re-execution, and returns a :class:`DurableRun` ready
    to continue stepping, plus :class:`RecoveryStats` timings.
    """
    directory = pathlib.Path(directory)
    stats = RecoveryStats()
    tracer = engine.obs.tracer

    t0 = time.perf_counter()
    with tracer.span("recovery.restore", directory=str(directory)):
        for path in sorted(directory.glob("snapshot-*.bin"), reverse=True):
            try:
                meta, arenas = read_snapshot(path)
            except SnapshotCorruptError:
                # It can never load: keep it out of snapshot retention.
                path.unlink()
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
    suffix: List[WalRecord] = []
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
    return run, stats
