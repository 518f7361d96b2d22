"""Write-ahead log of a run's records, fsync-batched, monotonic LSNs.

The WAL is line-oriented JSON: one record per line, each carrying a
monotonically increasing log sequence number and a CRC32 over its
canonical payload, so a torn tail (the half-written line a crash leaves
behind) is detected and truncated while mid-file corruption is reported
as :class:`~repro.errors.WalCorruptError` rather than silently replayed.
The first record is a ``begin`` header naming the *epoch* — one serving
lifetime of one durable directory — which snapshots also carry; a WAL
whose epoch does not match the snapshot is not replayed: recovery sets it
aside as ``wal.log.stale`` and begins a fresh log.

Appends buffer in memory and reach disk in fsync batches
(``fsync_every`` records), so steady-state logging costs one fsync per
batch, not per record.  Callers that *act* on a record's content before
acknowledging (e.g. migrating a session to another worker) must
:meth:`~WriteAheadLog.sync` first — the write-ahead discipline; the
durable runner does this for ``inject`` and ``depart`` records.
:meth:`~WriteAheadLog.drop_unsynced` models process death before fsync:
the buffered tail vanishes exactly as it would with a real kill.
"""

from __future__ import annotations

import dataclasses
import json
import os
import pathlib
import zlib
from typing import Iterator, List, Optional, Tuple

from repro.errors import WalCorruptError
from repro.serve import events

#: the header, then the kinds of the run's record stream
#: (:mod:`repro.serve.events`), which the log is the durable sink of; a
#: ``step`` record closes each step's bucket.
RECORD_KINDS = ("begin",) + events.RECORD_KINDS
#: 3: a ``depart`` is logged between steps, opening a bucket; a version-2
#: log can hold one logged mid-step, which replay would apply too early.
WAL_VERSION = 3


@dataclasses.dataclass(frozen=True)
class WalRecord:
    """One decoded log record."""

    lsn: int
    kind: str
    data: dict


def _encode(lsn: int, kind: str, data: dict) -> str:
    body = json.dumps({"lsn": lsn, "kind": kind, "data": data},
                      sort_keys=True, separators=(",", ":"))
    crc = zlib.crc32(body.encode("utf-8")) & 0xFFFFFFFF
    return f'{body[:-1]},"crc":{crc}}}\n'


def _decode(line: str) -> WalRecord:
    try:
        obj = json.loads(line)
    except ValueError as exc:
        raise WalCorruptError(f"undecodable WAL line: {exc}") from exc
    if not isinstance(obj, dict) or "crc" not in obj:
        raise WalCorruptError("WAL line missing crc field")
    crc = obj.pop("crc")
    body = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    if zlib.crc32(body.encode("utf-8")) & 0xFFFFFFFF != crc:
        raise WalCorruptError("WAL record CRC mismatch")
    return WalRecord(lsn=int(obj["lsn"]), kind=str(obj["kind"]),
                     data=obj["data"])


class WriteAheadLog:
    """Appender over one WAL file (see module docstring)."""

    def __init__(self, path: pathlib.Path, epoch: str,
                 fsync_every: int = 8, *, _resume_lsn: Optional[int] = None,
                 _resume_offset: Optional[int] = None) -> None:
        if fsync_every < 1:
            raise ValueError("fsync_every must be >= 1")
        self.path = pathlib.Path(path)
        self.epoch = epoch
        self.fsync_every = fsync_every
        self._buffer: List[str] = []
        self.syncs = 0
        if _resume_lsn is None:
            self._lsn = 0
            self._file = open(self.path, "wb")
            self._buffer.append(_encode(0, "begin", {
                "epoch": epoch, "version": WAL_VERSION}))
            self.sync()
        else:
            self._lsn = _resume_lsn
            # Truncate past the resume point, then end a last record the
            # crash cut off before its newline.
            self._file = open(self.path, "r+b")
            self._file.truncate(_resume_offset)
            self._file.seek(max(0, _resume_offset - 1))
            if self._file.read(1) not in (b"", b"\n"):
                self._file.write(b"\n")

    @classmethod
    def resume(cls, path: pathlib.Path, epoch: str, last_lsn: int,
               end_offset: int, fsync_every: int = 8) -> "WriteAheadLog":
        """Continue appending to an existing WAL after recovery.

        ``end_offset`` is the byte offset just past the last valid record
        (from :func:`read_wal`); anything beyond it is a torn tail and is
        truncated away.
        """
        return cls(path, epoch, fsync_every, _resume_lsn=last_lsn,
                   _resume_offset=end_offset)

    @property
    def last_lsn(self) -> int:
        return self._lsn

    def append(self, kind: str, data: dict) -> int:
        """Buffer one record; auto-syncs every ``fsync_every`` records."""
        if kind not in RECORD_KINDS:
            raise ValueError(f"unknown WAL record kind: {kind!r}")
        self._lsn += 1
        self._buffer.append(_encode(self._lsn, kind, data))
        if len(self._buffer) >= self.fsync_every:
            self.sync()
        return self._lsn

    def sync(self) -> None:
        """Write buffered records and fsync them to disk."""
        if not self._buffer:
            return
        self._file.write("".join(self._buffer).encode("utf-8"))
        self._file.flush()
        os.fsync(self._file.fileno())
        self._buffer.clear()
        self.syncs += 1

    def drop_unsynced(self) -> int:
        """Simulate process death before fsync: the buffered tail is lost.

        Returns the number of records dropped.  The in-memory LSN is *not*
        rolled back — the dying process never reuses them; the recovered
        appender resumes from the last on-disk LSN.
        """
        dropped = len(self._buffer)
        self._buffer.clear()
        return dropped

    def close(self) -> None:
        self.sync()
        self._file.close()


def read_wal(path: pathlib.Path
             ) -> Tuple[str, List[WalRecord], int, bool]:
    """Read a WAL file; returns ``(epoch, records, end_offset, torn)``.

    ``records`` excludes the ``begin`` header.  A torn *tail* — an
    undecodable or CRC-failing final line — is tolerated and truncated
    (``torn=True``); an invalid record followed by further valid lines is
    mid-file corruption and raises :class:`WalCorruptError`, as does a
    missing, malformed or other-version header or a non-monotonic LSN.
    ``end_offset`` is the byte offset just past the last valid record
    (and its newline, when the file has it), the resume point for
    :meth:`WriteAheadLog.resume`.
    """
    raw = pathlib.Path(path).read_bytes()
    lines = raw.split(b"\n")
    decoded: List[WalRecord] = []
    offset = 0
    torn = False
    for i, line in enumerate(lines):
        start, offset = offset, offset + len(line) + (i + 1 < len(lines))
        if not line:
            continue
        try:
            record = _decode(line.decode("utf-8"))
        except (WalCorruptError, UnicodeDecodeError) as exc:
            remainder = b"\n".join(lines[i + 1:]).strip()
            if remainder:
                raise WalCorruptError(
                    f"corrupt WAL record mid-file at byte {start}: {exc}")
            torn, offset = True, start
            break
        expect = decoded[-1].lsn + 1 if decoded else 0
        if record.lsn != expect:
            raise WalCorruptError(
                f"non-monotonic LSN {record.lsn} (expected {expect})")
        decoded.append(record)
    if not decoded or decoded[0].kind != "begin" \
            or decoded[0].data.get("version") != WAL_VERSION:
        raise WalCorruptError(f"WAL has no version-{WAL_VERSION} header")
    epoch = str(decoded[0].data.get("epoch", ""))
    return epoch, decoded[1:], offset, torn


def iter_step_buckets(records: List[WalRecord]
                      ) -> Iterator[Tuple[List[WalRecord], Optional[WalRecord]]]:
    """Group records into per-step buckets.

    Yields ``(bucket, step_marker)`` for every completed step (bucket =
    the records logged since the previous ``step`` marker, marker = the
    ``step`` record closing it) and, if the log ends mid-step, a final
    ``(trailing, None)`` with the unterminated records.
    """
    bucket: List[WalRecord] = []
    for record in records:
        if record.kind == "step":
            yield bucket, record
            bucket = []
        else:
            bucket.append(record)
    if bucket:
        yield bucket, None
