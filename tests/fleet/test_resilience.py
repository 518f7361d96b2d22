"""Gray-failure detection and cross-worker failover.

Covers the suspicion model directly (synthetic latencies into a
:class:`~repro.fleet.resilience.HealthMonitor`), then the router-level
behaviors it drives: suspect drain + self-heal, the bounded-wait guard
(:class:`~repro.errors.WorkerStalledError` instead of hanging), and true
cross-worker failover with bit-identical outputs for every gray kind.
"""

from __future__ import annotations

import pathlib

import pytest

import repro.fleet.router as router_module
from repro.bench.fleet import _build_fleet
from repro.bench.fleet_chaos import _fleet_outputs
from repro.errors import WorkerStalledError
from repro.fleet import HealthMonitor, HealthPolicy, WorkerState
from repro.obs import MetricsRegistry
from repro.serve.engine import EngineRun
from repro.system.faults import GRAY_KINDS, GrayFailurePlan

BASELINE_S = 0.001  #: synthetic healthy step latency


def warmed_monitor(policy: HealthPolicy,
                   n: int = 16) -> HealthMonitor:
    """Monitor with one attached worker and a settled healthy baseline."""
    monitor = HealthMonitor(policy)
    monitor.attach(0, MetricsRegistry(enabled=True))
    for _ in range(n):
        monitor.observe(0, BASELINE_S)
    return monitor


class TestSuspicionModel:
    def test_healthy_baseline_stays_healthy(self):
        monitor = warmed_monitor(HealthPolicy())
        before, after = monitor.observe(0, BASELINE_S * 1.5)
        assert after is WorkerState.HEALTHY
        assert monitor.suspect_transitions == 0

    def test_cold_worker_gets_benefit_of_doubt(self):
        monitor = HealthMonitor(HealthPolicy(min_samples=8))
        monitor.attach(0, MetricsRegistry(enabled=True))
        # Below min_samples phi is 0; only the deadline floor guards.
        _, after = monitor.observe(0, 0.2)
        assert after is WorkerState.HEALTHY

    def test_deadline_miss_suspects_then_fails(self):
        policy = HealthPolicy(step_deadline_s=1.0,
                              fail_after_deadline_misses=2)
        monitor = warmed_monitor(policy)
        _, after = monitor.observe(0, 2.0)
        assert after is WorkerState.SUSPECT
        _, after = monitor.observe(0, 2.0)
        assert after is WorkerState.FAILED
        # FAILED is sticky: a healthy sample cannot resurrect it.
        _, after = monitor.observe(0, BASELINE_S)
        assert after is WorkerState.FAILED

    def test_healthy_sample_resets_strikes(self):
        policy = HealthPolicy(step_deadline_s=1.0,
                              fail_after_deadline_misses=2)
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
        health = monitor.health(0)
        assert health.last_phi >= policy.suspect_phi

    def test_subdeadline_spike_never_accumulates_to_failover(self):
        # The half-deadline gate: a ms-scale fsync spike over a us-scale
        # baseline has astronomical phi but must stay a SUSPECT verdict
        # forever, never striking its way to FAILED.
        policy = HealthPolicy(step_deadline_s=1.0,
                              fail_after_deadline_misses=2)
        monitor = warmed_monitor(policy)
        for _ in range(10):
            _, after = monitor.observe(0, 0.05)  # phi >> fail_phi, < D/2
            assert after is WorkerState.SUSPECT
        assert monitor.health(0).deadline_misses == 0

    def test_material_phi_strikes_accumulate(self):
        policy = HealthPolicy(step_deadline_s=1.0,
                              fail_after_deadline_misses=2)
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
        before = len(monitor.health(0).baseline.values)
        monitor.observe(0, BASELINE_S * 50)
        assert len(monitor.health(0).baseline.values) == before

    def test_derived_deadline_scales_with_healthy_p95(self):
        policy = HealthPolicy(deadline_factor=20.0, deadline_floor_s=0.25)
        monitor = warmed_monitor(policy, n=32)
        assert monitor.deadline_s(0) == pytest.approx(0.25)  # floor wins
        slow = warmed_monitor(policy, n=0)
        for _ in range(32):
            slow.observe(0, 0.1)
        assert slow.deadline_s(0) == pytest.approx(2.0)  # 20 * p95

    def test_state_or_healthy_for_unattached_worker(self):
        monitor = HealthMonitor()
        assert monitor.state_or_healthy(99) is WorkerState.HEALTHY
        monitor.attach(1, MetricsRegistry(enabled=True))
        monitor.mark_failed(1)
        assert monitor.state_or_healthy(1) is WorkerState.FAILED
        assert monitor.failures == 1

    def test_suspect_counter_increments_on_transitions_only(self):
        policy = HealthPolicy(step_deadline_s=1.0,
                              fail_after_deadline_misses=10)
        monitor = warmed_monitor(policy)
        monitor.observe(0, 2.0)
        monitor.observe(0, 2.0)  # still SUSPECT, no new transition
        assert monitor.suspect_transitions == 1
        registry = monitor.health(0).metrics
        assert registry.counter("fleet.worker_suspect").value == 1


HEALTH = HealthPolicy(step_deadline_s=1.0, fail_after_deadline_misses=2)


def build_fleet(model, system, tmp_path, *, n_workers=4, plan=None,
                durable=True, blocks=64):
    return _build_fleet(
        n_workers, model, system, blocks, max_decode_batch=4,
        durable_root=pathlib.Path(tmp_path) if durable else None,
        snapshot_every=4,
        gray_plans=None if plan is None else {0: plan}, health=HEALTH)


class TestRouterResilience:
    @pytest.fixture()
    def reference(self, fleet_model, longsight_system, make_trace,
                  tmp_path):
        fleet = build_fleet(fleet_model, longsight_system,
                            tmp_path / "ref")
        report = fleet.run(make_trace())
        return report, _fleet_outputs(fleet)

    @pytest.mark.parametrize("kind", GRAY_KINDS)
    def test_failover_outputs_bit_identical(self, kind, fleet_model,
                                            longsight_system, make_trace,
                                            tmp_path, reference):
        ref_report, ref_outputs = reference
        plan = GrayFailurePlan(
            kind=kind, start_step=3, stall_s=2.0,
            period=1 if kind == "flapping_worker" else 4)
        fleet = build_fleet(fleet_model, longsight_system,
                            tmp_path / kind, plan=plan)
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
            assert report.metrics.counter("fleet.failovers").value == 1
        # The run is the run: no proxy between the router and it.
        assert all(isinstance(w.run, EngineRun) for w in fleet.workers)

    def test_recompute_failover_without_durable_dir(
            self, fleet_model, longsight_system, make_trace, tmp_path,
            reference):
        # No snapshots to recover from: failover falls back to draining
        # the raw in-memory run via recompute migration, still
        # bit-identical.
        _, ref_outputs = reference
        plan = GrayFailurePlan(kind="stuck_worker", start_step=3,
                               stall_s=2.0, period=4)
        fleet = build_fleet(fleet_model, longsight_system, tmp_path,
                            plan=plan, durable=False)
        report = fleet.run(make_trace())
        assert _fleet_outputs(fleet) == ref_outputs
        assert report.failovers == 1
        assert report.metrics.counter(
            "fleet.failover_recomputed").value == 1
        assert all(isinstance(w.run, EngineRun) for w in fleet.workers)

    def test_recompute_failover_of_a_durable_worker_without_snapshots(
            self, fleet_model, longsight_system, make_trace, tmp_path,
            reference, monkeypatch):
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
        fleet = build_fleet(fleet_model, longsight_system, tmp_path,
                            plan=plan)
        report = fleet.run(make_trace())
        assert _fleet_outputs(fleet) == ref_outputs
        assert report.failovers == 1
        assert report.metrics.counter(
            "fleet.failover_recomputed").value == 1
        assert report.metrics.counter(
            "fleet.failover_recovered").value == 0
        assert fleet.workers[0].run.fenced
        assert all(isinstance(w.run, EngineRun) for w in fleet.workers)

    def test_single_worker_stall_raises_typed_error(
            self, fleet_model, longsight_system, make_trace, tmp_path):
        # Bounded-wait guard: with nowhere to fail over to, the router
        # must raise instead of waiting on the wedged worker forever.
        plan = GrayFailurePlan(kind="stuck_worker", start_step=2,
                               stall_s=2.0, period=4)
        fleet = build_fleet(fleet_model, longsight_system, tmp_path,
                            n_workers=1, plan=plan)
        with pytest.raises(WorkerStalledError) as excinfo:
            fleet.run(make_trace(n_steady=4, n_burst=2))
        assert excinfo.value.worker_id == 0
        assert excinfo.value.observed_s > excinfo.value.deadline_s

    def test_slow_worker_below_deadline_self_heals(
            self, fleet_model, longsight_system, make_trace, tmp_path,
            reference):
        # Stalls well under the fixed deadline: the worker may be
        # suspected via phi (gated at half the deadline -> never a
        # strike) but must keep its sessions and finish them itself.
        _, ref_outputs = reference
        plan = GrayFailurePlan(kind="slow_worker", start_step=3,
                               stall_s=0.2, period=4)
        fleet = build_fleet(fleet_model, longsight_system, tmp_path,
                            plan=plan)
        report = fleet.run(make_trace())
        assert _fleet_outputs(fleet) == ref_outputs
        assert report.failovers == 0
