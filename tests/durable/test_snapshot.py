"""Snapshot round-trip fidelity and corruption rejection."""

import dataclasses

import numpy as np
import pytest

from repro.durable import read_snapshot, restore_run, write_snapshot
from repro.durable.snapshot import build_request, serialize_request
from repro.errors import DurabilityError, SnapshotCorruptError
from repro.serve.events import Record
from repro.serve.scheduler import ServeRequest


def _run_some_steps(engine, requests, n_steps):
    run = engine.start(requests)
    for _ in range(n_steps):
        if not run.step():
            break
    return run


def _snapshot_of(tmp_path, run):
    path = tmp_path / "snapshot-00000005.bin"
    write_snapshot(path, run, epoch="e", lsn=17, step=5)
    return path


class TestRoundTrip:
    def test_mid_decode_state_restores_bit_identically(
            self, tmp_path, engine_builder, make_workload):
        engine = engine_builder()
        run = _run_some_steps(engine, make_workload(), 6)
        pool = engine.pool
        path = _snapshot_of(tmp_path, run)

        meta, arenas = read_snapshot(path)
        assert meta["epoch"] == "e" and meta["lsn"] == 17 \
            and meta["step"] == 5
        engine2 = engine_builder()
        run2 = restore_run(engine2.start([]), meta, arenas)
        pool2 = engine2.pool

        # Free list must round-trip in exact LIFO order: future block
        # placement (hence gather layout) depends on it.
        assert pool2._free == pool._free
        assert pool2.high_watermark == pool.high_watermark
        assert pool2.total_allocated == pool.total_allocated
        # Arena bytes of every used block are bit-identical.
        used = sorted(set(range(pool.n_blocks)) - set(pool._free))
        bt = pool.block_tokens
        rows = [r for b in used for r in range(b * bt, (b + 1) * bt)]
        for layer in range(pool.config.n_layers):
            np.testing.assert_array_equal(
                pool2.k_arenas[layer][:, rows],
                pool.k_arenas[layer][:, rows])
            np.testing.assert_array_equal(
                pool2.v_arenas[layer][:, rows],
                pool.v_arenas[layer][:, rows])
            np.testing.assert_array_equal(
                pool2.sign_arenas[layer][:, rows],
                pool.sign_arenas[layer][:, rows])
        # Run/scheduler bookkeeping.
        assert run2.clock == run.clock
        assert run2.tokens_generated == run.tokens_generated
        assert [r.request_id for r in run2.scheduler.running] \
            == [r.request_id for r in run.scheduler.running]
        by_rid = {r.request_id: r for r in run._arrivals}
        for restored in run2._arrivals:
            original = by_rid[restored.request_id]
            assert restored.outputs == original.outputs
            assert restored.state is original.state
            assert restored.prefilled == original.prefilled

    def test_prefix_index_restores_shared_entries_with_refcounts(
            self, tmp_path, engine_builder, make_workload):
        engine = engine_builder()
        # Two sessions with an identical prompt share published blocks.
        requests = make_workload(n_requests=2, seed=3)
        requests[1].prompt = requests[0].prompt.copy()
        run = _run_some_steps(engine, requests, 8)
        pool = engine.pool
        if not pool._prefix_index:
            pytest.skip("workload produced no published prefix blocks")
        path = _snapshot_of(tmp_path, run)
        meta, arenas = read_snapshot(path)
        engine2 = engine_builder()
        run2 = restore_run(engine2.start([]), meta, arenas)
        pool2 = engine2.pool
        assert set(pool2._prefix_index) == set(pool._prefix_index)
        for key, entry in pool._prefix_index.items():
            restored = pool2._prefix_index[key]
            assert restored.block == entry.block
            assert restored.refcount == entry.refcount
            assert restored.signs_packed == entry.signs_packed
        # Cache entry maps must alias the pool's entries (same objects),
        # or a later free() would desync refcounts.
        for request in run2._arrivals:
            if request.cache is None:
                continue
            for block, entry in request.cache._entry_by_block.items():
                assert pool2._prefix_index[entry.key] is entry
                assert entry.block == block

    def test_departed_request_is_written_without_its_foreign_cache(
            self, tmp_path, engine_builder, make_workload):
        """A migrated-away request is one object shared with its new
        worker, so its cache (and backend) belong to the *other* pool:
        a snapshot of the source must not carry them."""
        source, target = engine_builder(), engine_builder()
        run = _run_some_steps(source, make_workload(), 4)
        migrant = run.scheduler.running[-1]
        run.scheduler.detach(migrant)
        run.note_departure(migrant)
        elsewhere = target.start([])
        elsewhere.inject(migrant)
        while migrant.cache is None:
            elsewhere.step()
        assert migrant.cache.pool is target.pool
        assert source.pool.n_used > 0

        meta, arenas = read_snapshot(_snapshot_of(tmp_path, run))
        assert meta["departed"] == [migrant.request_id]
        engine2 = engine_builder()
        run2 = restore_run(engine2.start([]), meta, arenas)
        restored = {r.request_id: r for r in run2._arrivals}
        assert restored[migrant.request_id].cache is None
        assert restored[migrant.request_id].backend is None
        assert id(restored[migrant.request_id]) in run2._departed
        assert engine2.pool.n_used == source.pool.n_used
        assert [r.request_id for r in run2.scheduler.running] \
            == [r.request_id for r in run.scheduler.running]

    def test_a_session_migrating_back_is_held_once(
            self, tmp_path, engine_builder, make_workload):
        """A session that leaves a run and later migrates back replaces
        its departed entry there: the snapshot lists each request once,
        and the restored run reports each once."""
        home, away = engine_builder(), engine_builder()
        run = _run_some_steps(home, make_workload(), 4)
        migrant = run.scheduler.running[-1]
        run.scheduler.detach(migrant)
        run.note_departure(migrant)
        elsewhere = away.start([])
        elsewhere.inject(migrant)
        while migrant.cache is None:
            elsewhere.step()
        elsewhere.scheduler.detach(migrant)
        elsewhere.note_departure(migrant)
        run.inject(migrant)

        meta, arenas = read_snapshot(_snapshot_of(tmp_path, run))
        rids = [r["request_id"] for r in meta["requests"]]
        assert sorted(rids) == [0, 1, 2]
        assert meta["departed"] == []
        run2 = restore_run(engine_builder().start([]), meta, arenas)
        report = run2.serve()
        assert sorted(e.request_id for e in report.events) == [0, 1, 2]
        run.serve()
        assert {r.request_id: r.outputs for r in run2.served} \
            == {r.request_id: r.outputs for r in run.served}

    def test_restore_refuses_dirty_engine(self, tmp_path, engine_builder,
                                          make_workload):
        engine = engine_builder()
        run = _run_some_steps(engine, make_workload(), 4)
        path = _snapshot_of(tmp_path, run)
        meta, arenas = read_snapshot(path)
        dirty = engine_builder()
        dirty.pool.allocate(1)
        with pytest.raises(DurabilityError):
            restore_run(dirty.start([]), meta, arenas)


def test_serialized_events_are_asdict_with_string_stage_keys():
    """A request's events serialize as ``dataclasses.asdict`` would (the
    brownout stages keyed by string), as copies, and build back equal."""
    request = ServeRequest(request_id=3, prompt=np.arange(5),
                           max_new_tokens=4)
    for kind, data in (("token", {"t": 0.5, "degraded": 0, "level": 2}),
                       ("token", {"t": 0.75, "degraded": 1, "level": 0}),
                       ("token", {"t": 1.0, "degraded": 0, "level": 2}),
                       ("preempt", {})):
        request.events.apply(Record(kind, request, data))
    events = serialize_request(request)["events"]
    expected = dataclasses.asdict(request.events)
    expected["brownout_tokens"] = {"2": 2}
    assert events == expected
    assert events["token_times_s"] == [0.5, 0.75, 1.0]
    assert events["token_times_s"] is not request.events.token_times_s
    assert build_request(serialize_request(request)).events \
        == request.events


class TestCorruptionRejection:
    @pytest.fixture
    def snapshot_path(self, tmp_path, engine_builder, make_workload):
        engine = engine_builder()
        run = _run_some_steps(engine, make_workload(), 5)
        return _snapshot_of(tmp_path, run)

    def test_valid_snapshot_verifies(self, snapshot_path):
        meta, _ = read_snapshot(snapshot_path)
        assert meta["format"] == "longsight-durable-snapshot"

    @pytest.mark.parametrize("frac", [0.1, 0.5, 0.9, 0.999])
    def test_any_truncation_is_rejected(self, snapshot_path, frac):
        raw = snapshot_path.read_bytes()
        snapshot_path.write_bytes(raw[:int(len(raw) * frac)])
        with pytest.raises(SnapshotCorruptError):
            read_snapshot(snapshot_path)

    @pytest.mark.parametrize("offset_frac", [0.0, 0.3, 0.7, 0.99])
    def test_any_bit_flip_fails_the_chain_hash(self, snapshot_path,
                                               offset_frac):
        raw = bytearray(snapshot_path.read_bytes())
        pos = min(len(raw) - 1, int(len(raw) * offset_frac))
        raw[pos] ^= 0x40
        snapshot_path.write_bytes(bytes(raw))
        with pytest.raises(SnapshotCorruptError):
            read_snapshot(snapshot_path)

    def test_wrong_magic_rejected(self, snapshot_path):
        raw = bytearray(snapshot_path.read_bytes())
        raw[:8] = b"NOTASNAP"
        snapshot_path.write_bytes(bytes(raw))
        with pytest.raises(SnapshotCorruptError):
            read_snapshot(snapshot_path)
