"""Fleet worker restart: restore-and-rejoin with exactly-once reporting."""

import collections

import pytest

from repro.bench.scenario import (Faults, Scenario, Topology, build_fleet,
                                  served_outputs as _fleet_outputs)
from repro.durable import iter_step_buckets, read_wal
from repro.faults import CrashPlan
from repro.serve.engine import EngineRun


@pytest.fixture
def make_fleet():
    def build(root, crash_plans=None, n_workers=2, n_blocks=48):
        return build_fleet(Scenario(
            topology=Topology(n_blocks=n_blocks, workers=n_workers,
                              snapshot_every=4),
            faults=Faults(crashes=crash_plans or {})), root)
    return build


def _reported_rids(report):
    return [e.request_id for w in report.workers for e in w.events]


def _assert_no_proxy(router):
    """Every worker's run is the run itself, not a wrapper around one."""
    assert all(isinstance(w.run, EngineRun) for w in router.workers)


#: a fleet that must migrate: 3-block sessions on 8-block workers.
TIGHT = dict(n_requests=8, prompt_tokens=24, output_tokens=20, seed=13)


def _depart_steps(worker):
    """Steps of ``worker``'s finished run whose WAL bucket holds a
    ``depart`` record (a session migrated away just before that step)."""
    _, records, _, _ = read_wal(worker.durable_dir / "wal.log")
    return [marker.data["step"]
            for bucket, marker in iter_step_buckets(records)
            if marker is not None
            and any(record.kind == "depart" for record in bucket)]


class TestRestoreAndRejoin:
    @pytest.mark.parametrize("kind", ["kill_after_fsync",
                                      "kill_before_fsync",
                                      "torn_snapshot"])
    @pytest.mark.parametrize("kill_at", [2, 5, 9])
    def test_killed_worker_restores_bit_identically(
            self, tmp_path, make_fleet, make_workload, kind, kill_at):
        reference_router = make_fleet(tmp_path / "ref")
        reference_report = reference_router.run(
            make_workload(n_requests=6, seed=11))
        reference = _fleet_outputs(reference_router)
        assert len(reference) == 6

        router = make_fleet(
            tmp_path / f"{kind}-{kill_at}",
            crash_plans={0: CrashPlan(kill_at_step=kill_at, kind=kind)})
        report = router.run(make_workload(n_requests=6, seed=11))
        assert report.worker_restores == 1
        assert len(router.recoveries) == 1
        assert _fleet_outputs(router) == reference
        assert sorted(_reported_rids(report)) \
            == sorted(_reported_rids(reference_report))
        _assert_no_proxy(router)

    def test_migrating_fleet_recovers_from_kills_around_departures(
            self, tmp_path, make_fleet, make_workload):
        """Kill either worker of a fleet that migrates, around every
        step a session departed before: replay must apply the logged
        departure as an input (not re-migrate the session), and the
        snapshots taken while the departed session lives on the sibling
        must restore."""
        reference_router = make_fleet(tmp_path / "ref", n_blocks=8)
        reference_report = reference_router.run(make_workload(**TIGHT))
        reference = _fleet_outputs(reference_router)
        assert reference_report.migrations >= 1
        kills = []
        for worker in reference_router.workers:
            departs = _depart_steps(worker)
            steps = {step for depart in departs
                     for step in range(depart - 2, depart + 5)}
            steps.update(range(8, worker.run.steps + 1, 8))
            kills += [(worker.worker_id, step, "kill_after_fsync")
                      for step in sorted(steps)
                      if 1 <= step <= worker.run.steps]
            # The depart is force-synced, its step's tokens and marker
            # are not: this kill leaves the depart in an unterminated
            # WAL tail.
            kills += [(worker.worker_id, depart, "kill_before_fsync")
                      for depart in departs]
        assert any(kind == "kill_before_fsync" for _, _, kind in kills)
        for worker_id, kill_at, kind in kills:
            router = make_fleet(
                tmp_path / f"w{worker_id}-{kind}-{kill_at}",
                crash_plans={worker_id: CrashPlan(kill_at_step=kill_at,
                                                  kind=kind)},
                n_blocks=8)
            report = router.run(make_workload(**TIGHT))
            where = f"worker {worker_id} {kind} at step {kill_at}"
            assert report.worker_restores == 1, where
            assert _fleet_outputs(router) == reference, where
            assert sorted(_reported_rids(report)) == list(range(8)), where
            _assert_no_proxy(router)

    def test_sessions_stay_home_instead_of_migrating(
            self, tmp_path, make_fleet, make_workload):
        """The point of restore-and-rejoin: a worker death must not
        scatter its sessions across the fleet."""
        reference_router = make_fleet(tmp_path / "ref")
        reference_report = reference_router.run(
            make_workload(n_requests=6, seed=11))

        router = make_fleet(
            tmp_path / "crash",
            crash_plans={0: CrashPlan(kill_at_step=5)})
        report = router.run(make_workload(n_requests=6, seed=11))
        assert report.migrations == reference_report.migrations
        assert report.worker_restores == 1


class TestExactlyOnceReporting:
    def test_restored_worker_never_double_reports(
            self, tmp_path, make_fleet, make_workload):
        """Satellite: every request id appears in exactly one worker's
        report, even when the worker serving it died and restored."""
        for kill_at in (2, 4, 7, 10):
            router = make_fleet(
                tmp_path / f"k{kill_at}",
                crash_plans={0: CrashPlan(kill_at_step=kill_at)})
            report = router.run(make_workload(n_requests=6, seed=11))
            counts = collections.Counter(_reported_rids(report))
            duplicates = {rid: n for rid, n in counts.items() if n > 1}
            assert not duplicates, \
                f"double-reported after kill at {kill_at}: {duplicates}"
            assert sorted(counts) == list(range(6))

    def test_departures_in_wal_tail_are_not_remigrated(
            self, tmp_path, make_fleet, make_workload):
        """A depart record in the unterminated WAL tail means the target
        already owns the session; the restored worker must apply it as an
        input, like an inject, rather than re-migrating (which would
        double the session) or re-reporting it."""
        # Tight pools force preemption->migration traffic between the
        # two workers, so depart records land near crash points.
        for kill_at in (3, 6, 9):
            router = make_fleet(
                tmp_path / f"k{kill_at}",
                crash_plans={0: CrashPlan(kill_at_step=kill_at)},
                n_blocks=8)
            report = router.run(make_workload(**TIGHT))
            assert report.migrations >= 1
            counts = collections.Counter(_reported_rids(report))
            assert all(n == 1 for n in counts.values())
            assert sorted(counts) == list(range(8))
