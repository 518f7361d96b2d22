"""Write-ahead log unit tests: LSNs, fsync batching, torn tails, resume."""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.durable import WriteAheadLog, iter_step_buckets, read_wal
from repro.errors import WalCorruptError


def _wal(tmp_path, **kwargs):
    return WriteAheadLog(tmp_path / "wal.log", "epoch-0", **kwargs)


class TestAppend:
    def test_lsns_are_monotonic_from_one(self, tmp_path):
        wal = _wal(tmp_path)
        lsns = [wal.append("token", {"rid": 0, "index": i, "token": i})
                for i in range(5)]
        assert lsns == [1, 2, 3, 4, 5]
        wal.close()
        epoch, records, _, torn = read_wal(tmp_path / "wal.log")
        assert epoch == "epoch-0"
        assert [r.lsn for r in records] == lsns
        assert not torn

    def test_unknown_kind_rejected(self, tmp_path):
        wal = _wal(tmp_path)
        with pytest.raises(ValueError):
            wal.append("frobnicate", {})

    def test_fsync_batching(self, tmp_path):
        wal = _wal(tmp_path, fsync_every=4)
        base_syncs = wal.syncs  # the begin header syncs once
        for i in range(3):
            wal.append("step", {"step": i + 1, "clock": 0.0})
        assert wal.syncs == base_syncs
        wal.append("step", {"step": 4, "clock": 0.0})  # batch boundary
        assert wal.syncs == base_syncs + 1
        assert wal.drop_unsynced() == 0

    def test_drop_unsynced_loses_only_the_tail(self, tmp_path):
        wal = _wal(tmp_path, fsync_every=100)
        wal.append("token", {"rid": 0, "index": 0, "token": 9})
        wal.sync()
        wal.append("token", {"rid": 0, "index": 1, "token": 10})
        wal.append("token", {"rid": 0, "index": 2, "token": 11})
        assert wal.drop_unsynced() == 2
        _, records, _, _ = read_wal(tmp_path / "wal.log")
        assert [r.data["token"] for r in records] == [9]


class TestReader:
    def test_torn_tail_is_tolerated(self, tmp_path):
        wal = _wal(tmp_path)
        for i in range(3):
            wal.append("step", {"step": i + 1, "clock": float(i)})
        wal.close()
        path = tmp_path / "wal.log"
        raw = path.read_bytes()
        path.write_bytes(raw[:-7])  # tear the final record mid-line
        _, records, end_offset, torn = read_wal(path)
        assert torn
        assert [r.data["step"] for r in records] == [1, 2]
        assert end_offset < len(raw)

    def test_midfile_corruption_raises(self, tmp_path):
        wal = _wal(tmp_path)
        for i in range(3):
            wal.append("step", {"step": i + 1, "clock": float(i)})
        wal.close()
        path = tmp_path / "wal.log"
        lines = path.read_bytes().splitlines(keepends=True)
        lines[1] = lines[1][:10] + b"X" + lines[1][11:]  # flip mid-record
        path.write_bytes(b"".join(lines))
        with pytest.raises(WalCorruptError):
            read_wal(path)

    def test_missing_header_raises(self, tmp_path):
        path = tmp_path / "wal.log"
        path.write_text("")
        with pytest.raises(WalCorruptError):
            read_wal(path)

    def test_crc_detects_payload_tamper(self, tmp_path):
        wal = _wal(tmp_path)
        wal.append("token", {"rid": 0, "index": 0, "token": 7})
        wal.close()
        path = tmp_path / "wal.log"
        tampered = path.read_text().replace('"token":7', '"token":8')
        assert tampered != path.read_text()
        path.write_text(tampered)
        # The tampered record is last, so it reads as a torn tail —
        # the record is *rejected*, not silently accepted.
        _, records, _, torn = read_wal(path)
        assert torn and records == []


class TestResume:
    def test_resume_truncates_torn_tail_and_continues_lsns(self, tmp_path):
        wal = _wal(tmp_path)
        for i in range(3):
            wal.append("step", {"step": i + 1, "clock": float(i)})
        wal.close()
        path = tmp_path / "wal.log"
        path.write_bytes(path.read_bytes()[:-5])
        epoch, records, end_offset, torn = read_wal(path)
        assert torn and len(records) == 2
        resumed = WriteAheadLog.resume(path, epoch, records[-1].lsn,
                                       end_offset)
        assert resumed.append("step", {"step": 3, "clock": 2.0}) == 3
        resumed.close()
        _, records, _, torn = read_wal(path)
        assert not torn
        assert [r.lsn for r in records] == [1, 2, 3]

    @settings(max_examples=10, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(tokens=st.lists(st.integers(0, 10_000), min_size=1, max_size=3))
    def test_a_cut_at_any_byte_resumes_cleanly(self, tmp_path_factory,
                                               tokens):
        """Cut a short WAL at every byte past its header, then read,
        resume, append two records and read again: no error, contiguous
        LSNs, and every record the cut left whole intact — including a
        cut that removes only the final newline."""
        path = tmp_path_factory.mktemp("cut") / "wal.log"
        wal = WriteAheadLog(path, "epoch-0")
        for i, token in enumerate(tokens):
            wal.append("token", {"rid": 0, "index": i, "token": token})
        wal.close()
        raw = path.read_bytes()
        ends = [i + 1 for i, byte in enumerate(raw) if byte == ord("\n")]
        for cut in range(ends[0] - 1, len(raw) + 1):
            path.write_bytes(raw[:cut])
            epoch, records, end_offset, _ = read_wal(path)
            whole = sum(end - 1 <= cut for end in ends[1:])
            assert [r.data["token"] for r in records] == tokens[:whole]
            resumed = WriteAheadLog.resume(
                path, epoch, records[-1].lsn if records else 0, end_offset)
            resumed.append("step", {"step": 1, "clock": 0.0})
            resumed.append("step", {"step": 2, "clock": 0.0})
            resumed.close()
            _, records, _, torn = read_wal(path)
            assert not torn, f"cut at byte {cut}"
            assert [r.lsn for r in records] == list(range(1, whole + 3))
            assert [r.data.get("token") for r in records[:whole]] \
                == tokens[:whole]


class TestStepBuckets:
    def test_buckets_split_on_step_markers(self, tmp_path):
        wal = _wal(tmp_path)
        wal.append("inject", {"rid": 0})
        wal.append("token", {"rid": 0, "index": 0, "token": 1})
        wal.append("step", {"step": 1, "clock": 0.1})
        wal.append("token", {"rid": 0, "index": 1, "token": 2})
        wal.append("step", {"step": 2, "clock": 0.2})
        wal.append("depart", {"rid": 0})  # unterminated trailing record
        wal.close()
        _, records, _, _ = read_wal(tmp_path / "wal.log")
        buckets = list(iter_step_buckets(records))
        assert [m.data["step"] if m else None for _, m in buckets] \
            == [1, 2, None]
        assert [len(b) for b, _ in buckets] == [2, 1, 1]
        assert buckets[-1][0][0].kind == "depart"
