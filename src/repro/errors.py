"""Shared exception hierarchy for the reproduction.

Every operational failure the stack can raise derives from
:class:`ReproError`, so callers that supervise the offload path (retry,
degrade, shed) can catch one family instead of enumerating bare
``RuntimeError``/``KeyError`` types scattered across modules.

:class:`ReproError` subclasses :class:`RuntimeError` so pre-existing
``except RuntimeError`` call sites keep working; :class:`UnknownUserError`
additionally subclasses :class:`KeyError` because it replaces the bare
``KeyError`` the DCC CAM used to raise for unregistered UIDs.

Kept unreached: ``*`` — error paths.
"""

from __future__ import annotations

import numpy as np


class ReproError(RuntimeError):
    """Base class for all operational errors raised by this package."""


class QueueFullError(ReproError):
    """A DCC hardware resource (MMIO request queue, response buffers) has
    no free slot."""


class NonFiniteError(ReproError, ValueError):
    """A NaN or infinite query, key or value reached the attention path.

    Raised before anything is stored or attended, so a non-finite
    activation is a typed error rather than a silent token (``np.argmax``
    returns a NaN's index)."""


def require_finite(what: str, *arrays: np.ndarray) -> None:
    """Raise :class:`NonFiniteError` unless every entry of ``arrays`` is
    finite; ``what`` names them in the message."""
    for array in arrays:
        if not np.isfinite(array).all():
            raise NonFiniteError(f"non-finite {what}")


class CapacityError(ReproError):
    """DReX cannot hold the requested allocation."""


class PoolExhaustedError(CapacityError):
    """The paged KV pool has no free blocks for the requested growth.

    Raised by :class:`repro.serve.paged_kv.PagedKVPool`; the serving
    engine's signal to preempt a session (or defer admission) rather than
    crash the batch.  Subclasses :class:`CapacityError` so generic
    capacity handling keeps working.

    Carries the pool's sizing context as structured attributes (``need``,
    ``free``, ``used``, ``total`` ...) so supervisors can size a retry or
    a migration target without parsing the message.  All keyword fields
    are optional: message-only construction keeps working for callers
    that predate the structured form."""

    def __init__(self, message: str, *, need: int = 0, free: int = 0,
                 total: int = 0, block_tokens: int = 0, n_layers: int = 0,
                 shared_prefix_blocks: int = 0,
                 high_watermark: int = 0) -> None:
        super().__init__(message)
        self.need = need
        self.free = free
        self.total = total
        self.used = max(0, total - free)
        self.block_tokens = block_tokens
        self.n_layers = n_layers
        self.shared_prefix_blocks = shared_prefix_blocks
        self.high_watermark = high_watermark


class OffloadTimeoutError(ReproError):
    """An offload did not complete within its deadline (CXL stall, lost
    response, or a device-side latency beyond the per-request budget)."""


class CorruptedKsoError(ReproError):
    """A Key Sign Object failed checksum verification (bit corruption in
    the sign store)."""


class UnknownUserError(ReproError, KeyError):
    """A UID was used that is not registered with the DCC CAM."""

    def __str__(self) -> str:  # KeyError would repr() the message
        return RuntimeError.__str__(self)


class DurabilityError(ReproError):
    """Base class for snapshot / write-ahead-log / recovery failures."""


class SnapshotCorruptError(DurabilityError):
    """A snapshot file failed integrity verification (bad magic, torn
    section framing, or chain-hash footer mismatch).  Recovery skips the
    file and falls back to the previous valid snapshot."""


class WalCorruptError(DurabilityError):
    """A write-ahead log record failed CRC or framing checks *before* the
    final record — mid-file corruption, not an ordinary torn tail."""


class ReplayDivergenceError(DurabilityError):
    """Deterministic re-execution of the WAL suffix produced a different
    token (or clock) than the logged record — the restored state is not
    bit-identical to the pre-crash run."""


class WorkerKilledError(DurabilityError):
    """An injected crash point killed the worker mid-run (see
    :class:`repro.faults.CrashPlan`).  The fleet router catches
    this and restores the worker from its durable directory."""

    def __init__(self, message: str, *, step: int = 0,
                 kind: str = "") -> None:
        super().__init__(message)
        self.step = step
        self.kind = kind


class WorkerStalledError(ReproError):
    """A worker blew its step deadline (gray failure: hung, wedged, or
    pathologically slow).  The fleet router's bounded-wait guard raises
    this instead of blocking the lockstep loop forever; with healthy
    siblings available the router converts it into a cross-worker
    failover, otherwise it propagates to the caller."""

    def __init__(self, message: str, *, worker_id: int = -1,
                 deadline_s: float = 0.0, observed_s: float = 0.0) -> None:
        super().__init__(message)
        self.worker_id = worker_id
        self.deadline_s = deadline_s
        self.observed_s = observed_s
