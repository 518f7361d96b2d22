"""Crash-recovery bit-identity: the headline property of this suite.

A durable run killed at *any* step boundary, by *any* crash kind, must —
after :func:`repro.durable.recover` and stepping to completion — produce
exactly the token streams of an uninterrupted run, for every session.
"""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.bench.scenario import Tenant, Trace
from repro.durable import DurableRun, recover
from repro.errors import (ReplayDivergenceError, SnapshotCorruptError,
                          WorkerKilledError)
from repro.faults import CRASH_KINDS, CrashPlan
from repro.serve.scheduler import BrownoutPolicy, SloPolicy


def _uninterrupted(engine_builder, make_workload, tmp_path,
                   snapshot_every=4):
    directory = tmp_path / "reference"
    run = DurableRun(engine_builder(), make_workload(), directory,
                     snapshot_every=snapshot_every)
    run.serve()
    outputs = {r.request_id: list(r.outputs) for r in run._arrivals}
    return outputs, run.steps


def _crash_and_recover(engine_builder, make_workload, directory, plan,
                       snapshot_every=4, fsync_every=8):
    """Serve under ``plan``; on the injected death, recover + finish."""
    run = DurableRun(engine_builder(), make_workload(), directory,
                     snapshot_every=snapshot_every,
                     fsync_every=fsync_every, crash=plan)
    stats = None
    try:
        report = run.serve()
    except WorkerKilledError as death:
        assert death.step == plan.kill_at_step
        assert death.kind == plan.kind
        run, stats = recover(directory, engine_builder(),
                             snapshot_every=snapshot_every,
                             fsync_every=fsync_every)
        report = run.serve()
    outputs = {r.request_id: list(r.outputs) for r in run._arrivals}
    return outputs, report, stats


class TestKillAtEveryBoundary:
    def test_every_step_every_kind_is_bit_identical(
            self, tmp_path, engine_builder, make_workload):
        """The exhaustive sweep: every event boundary x every crash kind."""
        reference, total_steps = _uninterrupted(engine_builder,
                                                make_workload, tmp_path)
        assert total_steps > 8  # the sweep must cross snapshot boundaries
        for kind in CRASH_KINDS:
            for kill_at in range(1, total_steps + 1):
                directory = tmp_path / f"{kind}-{kill_at}"
                outputs, _, stats = _crash_and_recover(
                    engine_builder, make_workload, directory,
                    CrashPlan(kill_at_step=kill_at, kind=kind))
                assert stats is not None, "crash never fired"
                assert outputs == reference, \
                    f"divergence after {kind} at step {kill_at}"

    def test_recovery_stats_account_for_the_replay(
            self, tmp_path, engine_builder, make_workload):
        reference, total_steps = _uninterrupted(engine_builder,
                                                make_workload, tmp_path)
        # Kill mid-snapshot-interval with a synced WAL: the suffix since
        # the last snapshot must be re-executed and token-verified.
        kill_at = 6  # snapshots at 0 and 4 -> replay steps 5..6
        directory = tmp_path / "stats"
        outputs, _, stats = _crash_and_recover(
            engine_builder, make_workload, directory,
            CrashPlan(kill_at_step=kill_at, kind="kill_after_fsync"))
        assert outputs == reference
        assert stats.snapshot_step == 4
        assert stats.steps_replayed == 2
        assert stats.tokens_replayed >= 0
        assert stats.snapshot_load_s >= 0 and stats.replay_s >= 0

    def test_kill_before_fsync_regenerates_the_lost_tail(
            self, tmp_path, engine_builder, make_workload):
        """With a huge fsync batch, everything since the last snapshot is
        lost with the process; re-execution must regenerate it."""
        reference, total_steps = _uninterrupted(engine_builder,
                                                make_workload, tmp_path)
        directory = tmp_path / "lost-tail"
        outputs, _, stats = _crash_and_recover(
            engine_builder, make_workload, directory,
            CrashPlan(kill_at_step=7, kind="kill_before_fsync"),
            fsync_every=10_000)
        assert outputs == reference
        # The unsynced records died with the process: nothing to replay.
        assert stats.steps_replayed == 0


class TestReusedDirectory:
    def test_a_fresh_run_recovers_itself_not_the_previous_one(
            self, tmp_path, engine_builder, make_workload):
        """A fresh run in a directory a finished run (and a torn snapshot
        write) left behind: its crash recovers its own requests, not the
        finished run whose snapshots sort after the new baseline."""
        directory = tmp_path / "reused"
        finished = DurableRun(engine_builder(), make_workload(seed=7),
                              directory, snapshot_every=4)
        finished.serve()
        assert finished.steps > 8
        (directory / "snapshot-99999999.bin.tmp").write_bytes(b"torn")

        def workload():
            return make_workload(seed=8)

        reference, _ = _uninterrupted(engine_builder, workload, tmp_path)
        previous = {r.request_id: list(r.outputs)
                    for r in finished._arrivals}
        assert reference != previous
        outputs, _, stats = _crash_and_recover(
            engine_builder, workload, directory,
            CrashPlan(kill_at_step=3, kind="kill_after_fsync"))
        assert stats.snapshot_step == 0 and stats.steps_replayed == 3
        assert outputs == reference
        assert not list(directory.glob("*.tmp"))


class TestBrownoutLadder:
    def test_brownout_stage_survives_restore(self, tmp_path,
                                             engine_builder):
        """The ladder stage is scheduler state: a run killed while it is
        escalated (or stepping down, one stage per step) must resume at
        the stage it died at, not at 0."""
        policy = SloPolicy(max_decode_batch=2, brownout=BrownoutPolicy(
            queue_high=(2, 3, 4, 50)))

        def engine():
            return engine_builder(policy=policy)

        def workload():
            return Trace((Tenant(8, 40, 8, seed=7, rate=500.0,
                                 charged=65_536),)).requests()

        def summary(run):
            return ({r.request_id: list(r.outputs) for r in run._arrivals},
                    {r.request_id: r.events.brownout_tokens
                     for r in run._arrivals},
                    run.scheduler.brownout_transitions)

        reference = DurableRun(engine(), workload(), tmp_path / "ref",
                               snapshot_every=4)
        ladder = []
        while reference.step():
            ladder.append(reference.scheduler.brownout_stage)
        escalated = [i + 1 for i, stage in enumerate(ladder) if stage]
        assert max(ladder) >= 2 and ladder[-1] == 0
        assert any(r.events.brownout_tokens for r in reference._arrivals)
        # From just before the escalation to past the snapshot that
        # follows the last step-down.
        for kill_at in range(escalated[0] - 1, escalated[-1] + 6):
            directory = tmp_path / f"k{kill_at}"
            run = DurableRun(engine(), workload(), directory,
                             snapshot_every=4,
                             crash=CrashPlan(kill_at_step=kill_at))
            with pytest.raises(WorkerKilledError):
                run.serve()
            run, _ = recover(directory, engine(), snapshot_every=4)
            run.serve()
            assert summary(run) == summary(reference), \
                f"brownout diverged after a kill at step {kill_at}"


class TestTornSnapshot:
    def test_falls_back_to_previous_valid_snapshot(
            self, tmp_path, engine_builder, make_workload):
        reference, total_steps = _uninterrupted(engine_builder,
                                                make_workload, tmp_path)
        directory = tmp_path / "torn"
        outputs, _, stats = _crash_and_recover(
            engine_builder, make_workload, directory,
            CrashPlan(kill_at_step=9, kind="torn_snapshot"))
        assert outputs == reference
        assert stats.snapshots_skipped == 1  # the torn one was rejected
        assert stats.snapshot_step < 9

    def test_recovery_fails_loudly_with_no_valid_snapshot(
            self, tmp_path, engine_builder, make_workload):
        directory = tmp_path / "hopeless"
        run = DurableRun(engine_builder(), make_workload(), directory,
                         snapshot_every=4)
        for _ in range(3):
            run.step()
        for snap in directory.glob("snapshot-*.bin"):
            snap.write_bytes(snap.read_bytes()[:64])
        with pytest.raises(SnapshotCorruptError):
            recover(directory, engine_builder())


class TestStaleWal:
    def test_foreign_epoch_wal_is_set_aside_not_replayed(
            self, tmp_path, engine_builder, make_workload):
        reference, _ = _uninterrupted(engine_builder, make_workload,
                                      tmp_path)
        directory = tmp_path / "stale"
        outputs, _, stats = _crash_and_recover(
            engine_builder, make_workload, directory,
            CrashPlan(kill_at_step=5, kind="stale_wal"))
        assert outputs == reference
        assert stats.stale_wal
        assert stats.steps_replayed == 0  # foreign suffix discarded
        assert (directory / "wal.log.stale").exists()
        # The directory re-anchored: fresh WAL + a snapshot that matches.
        assert (directory / "wal.log").exists()


class TestReplayVerification:
    def test_tampered_token_record_raises_divergence(
            self, tmp_path, engine_builder, make_workload):
        """Replay is a verification pass: a WAL token record that does
        not match deterministic re-execution must fail recovery."""
        directory = tmp_path / "tamper"
        run = DurableRun(engine_builder(), make_workload(), directory,
                         snapshot_every=100)  # only the step-0 snapshot
        try:
            while run.step():
                pass
        except WorkerKilledError:  # pragma: no cover - no crash plan
            raise
        run.wal.close()
        path = directory / "wal.log"
        lines = path.read_text().splitlines(keepends=True)
        # Rewrite the first token record with a different token value,
        # re-encoded with a valid CRC (simulates a corrupted-but-
        # plausible log, the case checksums cannot catch).
        from repro.durable.wal import _decode, _encode
        for i, line in enumerate(lines):
            record = _decode(line.strip())
            if record.kind == "token":
                data = dict(record.data)
                data["token"] = (data["token"] + 1) % 64
                lines[i] = _encode(record.lsn, "token", data)
                break
        path.write_text("".join(lines))
        with pytest.raises(ReplayDivergenceError):
            recover(directory, engine_builder())

    @pytest.mark.parametrize("kind", ["admit", "finish", "step"])
    def test_tampered_non_token_record_raises_divergence(
            self, tmp_path, engine_builder, make_workload, kind):
        """Every re-executed record of a bucket is verified, not only its
        tokens: an admission, a completion or a step record that does not
        match re-execution fails recovery too."""
        directory = tmp_path / "tamper"
        run = DurableRun(engine_builder(), make_workload(), directory,
                         snapshot_every=100)  # only the step-0 snapshot
        while run.step():
            pass
        run.wal.close()
        path = directory / "wal.log"
        lines = path.read_text().splitlines(keepends=True)
        from repro.durable.wal import _decode, _encode
        for i, line in enumerate(lines):
            record = _decode(line.strip())
            if record.kind == kind:
                data = dict(record.data)
                field = "clock" if kind == "step" else "t"
                data[field] = data[field] + 1.0
                lines[i] = _encode(record.lsn, kind, data)
                break
        else:
            pytest.fail(f"no {kind} record in the log")
        path.write_text("".join(lines))
        with pytest.raises(ReplayDivergenceError):
            recover(directory, engine_builder())


class TestTwoCrashesInOneInterval:
    """A second crash inside the snapshot interval the first one was
    recovered into, for every ordered pair of crash kinds."""

    @pytest.mark.parametrize("second", CRASH_KINDS)
    @pytest.mark.parametrize("first", CRASH_KINDS)
    @pytest.mark.parametrize("kills", [(6, 7), (5, 7)])
    def test_outputs_equal_the_no_crash_run(
            self, tmp_path, engine_builder, make_workload, kills, first,
            second):
        reference, _ = _uninterrupted(engine_builder, make_workload,
                                      tmp_path)
        directory = tmp_path / "twice"
        plans = [CrashPlan(kill_at_step=kills[0], kind=first),
                 CrashPlan(kill_at_step=kills[1], kind=second)]
        run = DurableRun(engine_builder(), make_workload(), directory,
                         snapshot_every=4, crash=plans.pop(0))
        deaths = 0
        while True:
            try:
                run.serve()
                break
            except WorkerKilledError:
                deaths += 1
                run, _ = recover(directory, engine_builder(),
                                 snapshot_every=4)
                run.crash = plans.pop(0) if plans else None
        assert deaths == 2
        outputs = {r.request_id: list(r.outputs) for r in run._arrivals}
        assert outputs == reference


class TestSnapshotRetention:
    def test_a_skipped_torn_snapshot_does_not_evict_a_loadable_one(
            self, tmp_path, engine_builder, make_workload):
        """Torn at step 6, recovered from snapshot 4, torn again at step
        7: retention must keep snapshot 4, the last one that can load."""
        reference, _ = _uninterrupted(engine_builder, make_workload,
                                      tmp_path)
        directory = tmp_path / "torn-twice"
        run = DurableRun(engine_builder(), make_workload(), directory,
                         snapshot_every=4,
                         crash=CrashPlan(kill_at_step=6,
                                         kind="torn_snapshot"))
        with pytest.raises(WorkerKilledError):
            run.serve()
        run, stats = recover(directory, engine_builder(), snapshot_every=4)
        assert stats.snapshot_step == 4 and stats.snapshots_skipped == 1
        run.crash = CrashPlan(kill_at_step=7, kind="torn_snapshot")
        with pytest.raises(WorkerKilledError):
            run.serve()
        assert (directory / "snapshot-00000004.bin").exists()
        run, stats = recover(directory, engine_builder(), snapshot_every=4)
        assert stats.snapshot_step == 4
        run.serve()
        assert {r.request_id: list(r.outputs)
                for r in run._arrivals} == reference


class TestHypothesisProperty:
    @settings(max_examples=12, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(snapshot_every=st.integers(min_value=1, max_value=9),
           kill_at=st.integers(min_value=1, max_value=12),
           kind=st.sampled_from(CRASH_KINDS),
           fsync_every=st.sampled_from([1, 3, 8, 10_000]))
    def test_any_snapshot_crash_replay_triple_reproduces_the_transcript(
            self, tmp_path_factory, engine_builder, make_workload,
            snapshot_every, kill_at, kind, fsync_every):
        """Any (snapshot cadence, crash point, crash kind, fsync batch)
        combination reproduces the uninterrupted transcript."""
        tmp_path = tmp_path_factory.mktemp("hyp")
        reference, total_steps = _uninterrupted(
            engine_builder, make_workload, tmp_path,
            snapshot_every=snapshot_every)
        kill_at = min(kill_at, total_steps)
        outputs, _, stats = _crash_and_recover(
            engine_builder, make_workload, tmp_path / "crash",
            CrashPlan(kill_at_step=kill_at, kind=kind),
            snapshot_every=snapshot_every, fsync_every=fsync_every)
        assert stats is not None
        assert outputs == reference
