"""Gray-failure detection and cross-worker failover.

Covers the suspicion model directly (synthetic latencies into a
:class:`~repro.fleet.resilience.HealthMonitor`), then the router-level
behaviors it drives: suspect drain + self-heal, the bounded-wait guard
(:class:`~repro.errors.WorkerStalledError` instead of hanging), and true
cross-worker failover with bit-identical outputs for every gray kind.
"""

from __future__ import annotations

import math
import pathlib

import pytest

import repro.fleet.router as router_module
from repro.bench.fleet import fleet_topology
from repro.bench.scenario import (Faults, Scenario, Tenant, Trace,
                                  build_engine, build_fleet as _fleet,
                                  served_outputs as _fleet_outputs)
from repro.errors import WorkerStalledError
from repro.faults import GRAY_KINDS, GrayFailurePlan
from repro.fleet import (FleetRouter, FleetWorker, HealthMonitor,
                         HealthPolicy, WorkerState)
from repro.fleet.resilience import MIN_SAMPLES, WINDOW
from repro.obs import MetricsRegistry, Obs, Tracer
from repro.serve.engine import EngineRun
from repro.serve.events import RecordLog

BASELINE_S = 0.001  #: synthetic healthy step latency


def warmed_monitor(policy: HealthPolicy,
                   n: int = 16) -> HealthMonitor:
    """Monitor with one attached worker and a settled healthy baseline."""
    monitor = HealthMonitor(RecordLog(), policy)
    monitor.attach(0)
    for _ in range(n):
        monitor.observe(0, BASELINE_S)
    return monitor


def suspects(monitor: HealthMonitor) -> int:
    """Verdicts that entered SUSPECT: the fold of the monitor's ``health``
    records that ``FleetReport.worker_suspects`` is."""
    return sum(r.data["state"] == "suspect" != r.data["before"]
               for r in monitor.log.records)


class TestHealthPolicy:
    @pytest.mark.parametrize("knobs", [
        {"suspect_phi": 0.0}, {"suspect_phi": 13.0, "fail_phi": 12.0},
        {"step_deadline_s": 0.0}])
    def test_rejects_invalid_knobs(self, knobs):
        with pytest.raises(ValueError):
            HealthPolicy(**knobs)

    def test_min_samples_up_to_the_window_scores(self):
        # MIN_SAMPLES above WINDOW would keep phi at 0 and the deadline
        # at its floor forever; a full window scores.
        assert MIN_SAMPLES <= WINDOW
        monitor = warmed_monitor(HealthPolicy(), n=100)
        _, after = monitor.observe(0, 0.1)
        assert monitor.health[0].last_phi > 0.0
        assert after is WorkerState.SUSPECT


class TestSuspicionModel:
    def test_healthy_baseline_stays_healthy(self):
        monitor = warmed_monitor(HealthPolicy())
        before, after = monitor.observe(0, BASELINE_S * 1.5)
        assert after is WorkerState.HEALTHY
        assert suspects(monitor) == 0

    def test_cold_worker_gets_benefit_of_doubt(self):
        monitor = warmed_monitor(HealthPolicy(), n=0)
        # Below MIN_SAMPLES phi is 0; only the deadline floor guards.
        _, after = monitor.observe(0, 0.2)
        assert after is WorkerState.HEALTHY

    def test_deadline_miss_suspects_then_fails(self):
        policy = HealthPolicy(step_deadline_s=1.0)
        monitor = warmed_monitor(policy)
        _, after = monitor.observe(0, 2.0)
        assert after is WorkerState.SUSPECT
        _, after = monitor.observe(0, 2.0)
        assert after is WorkerState.FAILED
        # FAILED is sticky: a healthy sample cannot resurrect it.
        _, after = monitor.observe(0, BASELINE_S)
        assert after is WorkerState.FAILED

    def test_healthy_sample_resets_strikes(self):
        policy = HealthPolicy(step_deadline_s=1.0)
        monitor = warmed_monitor(policy)
        monitor.observe(0, 2.0)                      # strike 1 -> SUSPECT
        _, after = monitor.observe(0, BASELINE_S)    # heals
        assert after is WorkerState.HEALTHY
        _, after = monitor.observe(0, 2.0)           # strike 1 again
        assert after is WorkerState.SUSPECT

    def test_phi_outlier_suspects_without_deadline_miss(self):
        # Deadline huge, so only the phi path can suspect.
        policy = HealthPolicy(step_deadline_s=1e6)
        monitor = warmed_monitor(policy)
        _, after = monitor.observe(0, BASELINE_S * 50)
        assert after is WorkerState.SUSPECT
        health = monitor.health[0]
        assert health.last_phi >= policy.suspect_phi

    def test_subdeadline_spike_never_accumulates_to_failover(self):
        # The half-deadline gate: a ms-scale fsync spike over a us-scale
        # baseline has astronomical phi but must stay a SUSPECT verdict
        # forever, never striking its way to FAILED.
        policy = HealthPolicy(step_deadline_s=1.0)
        monitor = warmed_monitor(policy)
        for _ in range(10):
            _, after = monitor.observe(0, 0.05)  # phi >> fail_phi, < D/2
            assert after is WorkerState.SUSPECT
        assert monitor.health[0].deadline_misses == 0

    def test_material_phi_strikes_accumulate(self):
        policy = HealthPolicy(step_deadline_s=1.0)
        monitor = warmed_monitor(policy)
        _, after = monitor.observe(0, 0.6)  # >= D/2, phi extreme
        assert after is WorkerState.SUSPECT
        _, after = monitor.observe(0, 0.6)
        assert after is WorkerState.FAILED

    def test_outliers_do_not_poison_the_baseline(self):
        # A creeping slowdown must not normalize itself: suspected
        # samples are judged against the baseline but never join it.
        policy = HealthPolicy(step_deadline_s=1e6)
        monitor = warmed_monitor(policy)
        before = len(monitor.health[0].window)
        monitor.observe(0, BASELINE_S * 50)
        assert len(monitor.health[0].window) == before

    def test_derived_deadline_scales_with_healthy_p95(self):
        policy = HealthPolicy()    # DEADLINE_FACTOR 20, DEADLINE_FLOOR_S 0.25
        monitor = warmed_monitor(policy, n=32)
        # the floor wins
        assert monitor.health[0].deadline_s() == pytest.approx(0.25)
        slow = warmed_monitor(policy, n=0)
        for _ in range(32):
            slow.observe(0, 0.1)
        assert slow.health[0].deadline_s() == pytest.approx(2.0)  # 20 * p95

    def test_state_or_healthy_for_unattached_worker(self):
        monitor = HealthMonitor(RecordLog(),
                                HealthPolicy(step_deadline_s=1.0))
        assert monitor.state_or_healthy(99) is WorkerState.HEALTHY
        monitor.attach(1)
        monitor.observe(1, 2.0)
        monitor.observe(1, 2.0)
        assert monitor.state_or_healthy(1) is WorkerState.FAILED
        assert [r.data["state"] for r in monitor.log.records
                ].count("failed") == 1

    def test_suspect_counter_increments_on_transitions_only(self):
        # Sub-half-deadline phi outliers suspect without a strike, so the
        # worker stays SUSPECT however many arrive.
        policy = HealthPolicy(step_deadline_s=1.0)
        monitor = warmed_monitor(policy)
        monitor.observe(0, 0.05)
        monitor.observe(0, 0.05)  # still SUSPECT, no new transition
        assert suspects(monitor) == 1


    def test_health_records_verdict_changes_and_strikes_only(self):
        policy = HealthPolicy(step_deadline_s=1.0)
        monitor = warmed_monitor(policy)
        assert monitor.log.records == []     # steady HEALTHY: no record
        monitor.observe(0, 0.05)             # HEALTHY -> SUSPECT, by phi
        monitor.observe(0, 2.0)              # strike, verdict unchanged
        monitor.observe(0, BASELINE_S)       # SUSPECT -> HEALTHY
        monitor.observe(0, BASELINE_S)       # steady: no record
        assert [(r.kind, r.data["worker"], r.data["before"],
                 r.data["state"], r.data["strikes"], r.data["observed_s"],
                 r.data["deadline_s"]) for r in monitor.log.records] == [
            ("health", 0, "healthy", "suspect", 0, 0.05, 1.0),
            ("health", 0, "suspect", "suspect", 1, 2.0, 1.0),
            ("health", 0, "suspect", "healthy", 0, BASELINE_S, 1.0)]
        assert monitor.log.records[1].data["phi"] == float("inf")
        assert sum(r.data["observed_s"] > r.data["deadline_s"]
                   for r in monitor.log.records) == 1

    def test_reset_clears_verdict_and_strikes_and_keeps_window(self):
        policy = HealthPolicy(step_deadline_s=1.0)
        monitor = warmed_monitor(policy)
        monitor.observe(0, 2.0)
        monitor.reset(0)
        health = monitor.health[0]
        assert health.state is WorkerState.HEALTHY
        assert health.deadline_misses == 0
        assert list(health.window) == [BASELINE_S] * 16

    def test_window_is_bounded(self):
        monitor = warmed_monitor(HealthPolicy(), n=WINDOW + 12)
        assert len(monitor.health[0].window) == WINDOW


def shared_registry_fleet(obs: Obs) -> FleetRouter:
    """Two workers whose engines share one registry (as every engine
    built without an ``obs`` shares the process default)."""
    return FleetRouter([FleetWorker(wid, build_engine(Scenario(), obs))
                        for wid in range(2)])


class TestMonitorOwnsTheWindow:
    def test_workers_sharing_a_registry_keep_separate_windows(self):
        router = shared_registry_fleet(
            Obs(MetricsRegistry(enabled=True), Tracer(enabled=False)))
        router.run([])
        monitor = router.monitor
        for _ in range(16):
            monitor.observe(0, BASELINE_S)
        assert len(monitor.health[1].window) == 0
        _, after = monitor.observe(1, 0.2)   # cold: only the floor
        assert after is WorkerState.HEALTHY

    def test_a_second_router_starts_with_empty_windows(self):
        obs = Obs(MetricsRegistry(enabled=True), Tracer(enabled=False))
        first = shared_registry_fleet(obs)
        first.run(Trace((Tenant(4, 24, 4, rate=50.0),)).requests())
        assert any(len(first.monitor.health[w].window) for w in (0, 1))
        second = shared_registry_fleet(obs)
        second.run([])
        assert [len(second.monitor.health[w].window) for w in (0, 1)] \
            == [0, 0]


#: Deadline strikes on the simulated stalls decide failover, as the fleet
#: benches' jitter-free health does: phi judges wall-clock step latency,
#: which host load can push into a strike on a flapping worker's healthy
#: step (phi strikes keep their own unit tests).
HEALTH = HealthPolicy(step_deadline_s=1.0, suspect_phi=math.inf,
                      fail_phi=math.inf)


def build_fleet(tmp_path, *, n_workers=4, plan=None, durable=True,
                blocks=64):
    return _fleet(Scenario(
        topology=fleet_topology(n_workers, blocks, 4,
                                snapshot_every=4 if durable else None,
                                health=HEALTH),
        faults=Faults(gray={} if plan is None else {0: plan})),
        pathlib.Path(tmp_path))


def run_recorded(fleet: FleetRouter, requests):
    """``fleet.run(requests)``, and the fleet's whole record stream."""
    fleet.start(requests)
    records = []
    while fleet.step():
        records += fleet.records
    return fleet.finish(), records


def failovers_recovered(records) -> list:
    """Each failover's ``recovered`` flag: rebuilt from disk, or drained
    by recompute migration."""
    return [r.data["recovered"] for r in records if r.kind == "failover"]


class TestRouterResilience:
    @pytest.fixture()
    def reference(self, make_trace, tmp_path):
        fleet = build_fleet(tmp_path / "ref")
        report = fleet.run(make_trace())
        return report, _fleet_outputs(fleet)

    @pytest.mark.parametrize("kind", GRAY_KINDS)
    def test_failover_outputs_bit_identical(self, kind, make_trace,
                                            tmp_path, reference):
        ref_report, ref_outputs = reference
        plan = GrayFailurePlan(
            kind=kind, start_step=3, stall_s=2.0,
            period=1 if kind == "flapping_worker" else 4)
        fleet = build_fleet(tmp_path / kind, plan=plan)
        report = fleet.run(make_trace())
        assert _fleet_outputs(fleet) == ref_outputs
        assert report.completed == ref_report.completed
        assert report.shed == 0 and report.rejected == 0
        if kind == "flapping_worker":
            # Period-1 flapping never misses twice in a row: repeatedly
            # suspected and drained, self-heals, no failover.
            assert report.failovers == 0
            assert report.worker_suspects >= 2
        else:
            assert report.failovers == 1
            assert report.failover_sessions >= 0
            assert report.failover_latency_max_s > 0.0
        # The run is the run: no proxy between the router and it.
        assert all(isinstance(w.run, EngineRun) for w in fleet.workers)

    def test_recompute_failover_without_durable_dir(
            self, make_trace, tmp_path, reference):
        # No snapshots to recover from: failover falls back to draining
        # the raw in-memory run via recompute migration, still
        # bit-identical.
        _, ref_outputs = reference
        plan = GrayFailurePlan(kind="stuck_worker", start_step=3,
                               stall_s=2.0, period=4)
        fleet = build_fleet(tmp_path, plan=plan, durable=False)
        report, records = run_recorded(fleet, make_trace())
        assert _fleet_outputs(fleet) == ref_outputs
        assert report.failovers == 1
        assert failovers_recovered(records) == [False]
        assert all(isinstance(w.run, EngineRun) for w in fleet.workers)

    def test_recompute_failover_of_a_durable_worker_without_snapshots(
            self, make_trace, tmp_path, reference, monkeypatch):
        # A durable worker whose snapshots are all unverifiable by the
        # time it fails over has nothing to rebuild from: the drain runs
        # off the *fenced* durable run, which must not try to log the
        # departures into its closed WAL.
        _, ref_outputs = reference
        real_recover = router_module.recover

        def recover_after_corruption(directory, engine, **kwargs):
            for snapshot in pathlib.Path(directory).glob("snapshot-*.bin"):
                snapshot.write_bytes(snapshot.read_bytes()[:64])
            return real_recover(directory, engine, **kwargs)

        monkeypatch.setattr(router_module, "recover",
                            recover_after_corruption)
        plan = GrayFailurePlan(kind="stuck_worker", start_step=3,
                               stall_s=2.0, period=4)
        fleet = build_fleet(tmp_path, plan=plan)
        report, records = run_recorded(fleet, make_trace())
        assert _fleet_outputs(fleet) == ref_outputs
        assert report.failovers == 1
        assert failovers_recovered(records) == [False]
        assert fleet.workers[0].run.fenced
        assert all(isinstance(w.run, EngineRun) for w in fleet.workers)

    def test_single_worker_stall_raises_typed_error(
            self, make_trace, tmp_path):
        # Bounded-wait guard: with nowhere to fail over to, the router
        # must raise instead of waiting on the wedged worker forever.
        plan = GrayFailurePlan(kind="stuck_worker", start_step=2,
                               stall_s=2.0, period=4)
        fleet = build_fleet(tmp_path, n_workers=1, plan=plan)
        with pytest.raises(WorkerStalledError) as excinfo:
            fleet.run(make_trace(n_steady=4, n_burst=2))
        assert excinfo.value.worker_id == 0
        assert excinfo.value.observed_s > excinfo.value.deadline_s

    def test_slow_worker_below_deadline_self_heals(
            self, make_trace, tmp_path, reference):
        # Stalls well under the fixed deadline: the worker may be
        # suspected via phi (gated at half the deadline -> never a
        # strike) but must keep its sessions and finish them itself.
        _, ref_outputs = reference
        plan = GrayFailurePlan(kind="slow_worker", start_step=3,
                               stall_s=0.2, period=4)
        fleet = build_fleet(tmp_path, plan=plan)
        report = fleet.run(make_trace())
        assert _fleet_outputs(fleet) == ref_outputs
        assert report.failovers == 0
