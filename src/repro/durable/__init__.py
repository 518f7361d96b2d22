"""Durable serving: snapshots, write-ahead logging, and crash recovery.

Public surface:

- :class:`DurableRun` — an :class:`~repro.serve.engine.EngineRun` with
  periodic chain-hashed snapshots and an fsync-batched WAL of its inputs
  and emitted tokens.
- :func:`recover` — newest-valid-snapshot restore + verified WAL replay;
  resumes mid-decode bit-identically to an uninterrupted run.
- :class:`WriteAheadLog` / :func:`read_wal` — the log layer.
- :func:`write_snapshot` / :func:`read_snapshot` / :func:`restore_run` —
  the snapshot layer.

Crash points are scheduled with :class:`repro.system.faults.CrashPlan`;
the errors live in :mod:`repro.errors` (``DurabilityError`` family).
"""

from repro.durable.runner import DurableRun, RecoveryStats, recover
from repro.durable.snapshot import (build_request, read_snapshot,
                                    restore_run, serialize_request,
                                    write_snapshot)
from repro.durable.wal import (RECORD_KINDS, WalRecord, WriteAheadLog,
                               iter_step_buckets, read_wal)

__all__ = [
    "DurableRun", "RecoveryStats", "recover",
    "build_request", "read_snapshot", "restore_run", "serialize_request",
    "write_snapshot",
    "RECORD_KINDS", "WalRecord", "WriteAheadLog", "iter_step_buckets",
    "read_wal",
]
