"""Chaos x durability: supervised-offload degradation survives restore.

The property: degradation the :class:`OffloadSupervisor` records
mid-decode (degraded tokens, retry/repair telemetry, flush watermarks,
unrepaired KSO flips) is part of the durable state, and every fault is
keyed by its site, so no generator state is saved or restored: a
re-executed step asks the sites it asked before and gets the same
answers.  After a crash and recovery the degraded_token_fraction must be
identical to an uninterrupted run, not merely "small".  A fault plan
harsh enough to degrade ~20% of sparse attempts makes any divergence
visible immediately.
"""

import pytest

from repro.bench.scenario import (TINY_LS, TINY_MODEL, Faults, Scenario,
                                  Tenant, Topology, Trace, build_engine)
from repro.drex.backend import DrexOffloadBackend
from repro.durable import DurableRun, recover
from repro.errors import WorkerKilledError
from repro.faults import CrashPlan, FaultPlan
from repro.serve.scheduler import SloPolicy

pytestmark = pytest.mark.chaos

#: Four attempts (three retries), then degrade: with a 0.7 timeout rate
#: the degradation probability per sparse attempt is 0.7**4 ~ 0.24 — high
#: enough that a restore that asked other sites would diverge within a
#: step or two.
FAULT_PLAN = FaultPlan(cxl_timeout_rate=0.7, seed=3)


def _supervised_factory():
    def make_backend(request):
        return DrexOffloadBackend(TINY_MODEL, TINY_LS, plan=FAULT_PLAN)
    return make_backend


@pytest.fixture
def supervised_builder(engine_builder):
    def build():
        return engine_builder(make_backend=_supervised_factory())
    return build


def _events_by_rid(run):
    return {r.request_id: (list(r.outputs), r.events.degraded_tokens,
                           len(r.events.token_times_s))
            for r in run._arrivals}


class TestDegradationSurvivesRestore:
    def test_degraded_fraction_identical_after_any_crash_point(
            self, tmp_path, supervised_builder, make_workload):
        reference = DurableRun(supervised_builder(), make_workload(),
                               tmp_path / "reference", snapshot_every=4)
        reference_report = reference.serve()
        # Non-vacuous: the plan must actually degrade tokens.
        assert reference_report.degraded_token_fraction > 0.0
        expected = _events_by_rid(reference)

        # kill_before_fsync is the adversarial kind here: the lost WAL
        # tail is *re-executed*, so its offloads must ask the same sites
        # from exactly the snapshotted watermarks and flips.
        for kill_at in range(1, reference.steps + 1):
            directory = tmp_path / f"kill-{kill_at}"
            run = DurableRun(supervised_builder(), make_workload(),
                             directory, snapshot_every=4,
                             crash=CrashPlan(kill_at_step=kill_at,
                                             kind="kill_before_fsync"))
            with pytest.raises(WorkerKilledError):
                run.serve()
            run, _ = recover(directory, supervised_builder(),
                             snapshot_every=4)
            report = run.serve()
            assert _events_by_rid(run) == expected, \
                f"degradation diverged after crash at step {kill_at}"
            assert report.degraded_token_fraction \
                == reference_report.degraded_token_fraction

    def test_mid_decode_supervisor_state_is_restored_verbatim(
            self, tmp_path, supervised_builder, make_workload):
        """Directly before/after: the live backends' durable state at the
        restore point equals the state captured at the crash point."""
        directory = tmp_path / "mid"
        run = DurableRun(supervised_builder(), make_workload(), directory,
                         snapshot_every=4,
                         crash=CrashPlan(kill_at_step=10,
                                         kind="kill_after_fsync"))
        with pytest.raises(WorkerKilledError):
            run.serve()
        # The crashed object is still inspectable: capture the supervised
        # state of every live session at the moment of death.
        before = {r.request_id: r.backend.durable_state()
                  for r in run._arrivals
                  if r.backend is not None}
        fractions = {r.request_id: r.events.degraded_tokens
                     for r in run._arrivals}
        assert any(s["supervisor_stats"]["succeeded"]
                   + s["supervisor_stats"]["degraded"] > 0
                   for s in before.values())

        recovered, stats = recover(directory, supervised_builder(),
                                   snapshot_every=4)
        after = {r.request_id: r.backend.durable_state()
                 for r in recovered._arrivals
                 if r.backend is not None}
        assert after == before
        assert {r.request_id: r.events.degraded_tokens
                for r in recovered._arrivals} == fractions
        assert stats.snapshot_step + stats.steps_replayed == 10


class TestPinSurvivesRestore:
    """A session shed from the offload path is served at the dense floor
    by a variant of the kernel; its supervised backend stays on the
    request, so a snapshot taken mid-pin carries the backend's state and
    the restored run resumes pinned."""

    @pytest.fixture
    def failing_builder(self, engine_builder):
        def make_backend(request):
            return DrexOffloadBackend(
                TINY_MODEL, TINY_LS, plan=FaultPlan.total_failure())

        def build():
            return engine_builder(make_backend=make_backend,
                                  policy=SloPolicy(max_decode_batch=4))
        return build

    def test_mid_pin_restore_resumes_pinned_with_backend_state(
            self, tmp_path, failing_builder, make_workload):
        reference = DurableRun(failing_builder(), make_workload(),
                               tmp_path / "reference", snapshot_every=2)
        reference.serve()
        expected = _events_by_rid(reference)
        assert all(r.events.shed for r in reference._arrivals)

        # Kill at the first step that begins with a live pinned session.
        probe = DurableRun(failing_builder(), make_workload(),
                           tmp_path / "probe", snapshot_every=2)
        while not any(r.pinned_dense and r.backend is not None
                      for r in probe._arrivals):
            assert probe.step()
        kill_at = probe.steps + 1

        directory = tmp_path / "mid-pin"
        run = DurableRun(failing_builder(), make_workload(), directory,
                         snapshot_every=2,
                         crash=CrashPlan(kill_at_step=kill_at,
                                         kind="kill_after_fsync"))
        with pytest.raises(WorkerKilledError):
            run.serve()
        before = {r.request_id: r.backend.durable_state()
                  for r in run._arrivals if r.backend is not None}
        pinned = {r.request_id for r in run._arrivals
                  if r.pinned_dense and r.backend is not None}
        assert pinned and pinned <= set(before)

        recovered, _ = recover(directory, failing_builder(),
                               snapshot_every=2)
        live = {r.request_id: r for r in recovered._arrivals
                if r.backend is not None}
        assert {rid for rid, r in live.items() if r.pinned_dense} == pinned
        for rid in pinned:
            assert isinstance(live[rid].backend, DrexOffloadBackend)
        assert {rid: r.backend.durable_state()
                for rid, r in live.items()} == before
        recovered.serve()
        assert _events_by_rid(recovered) == expected


def _live_states(run):
    """request id -> durable state of every live offload backend: fault
    counts, supervisor stats, total latency, degraded log, flush
    watermarks and outstanding KSO flips."""
    return {r.request_id: r.backend.durable_state()
            for r in run._arrivals if r.backend is not None}


class TestRecoveryIsExactUnderEveryFault:
    """A durable offload engine killed at every step recovers into
    exactly the uninterrupted run: the same live backend state at the
    recovery point and after every later step, and the same tokens.
    Deferred flushes (capacity pressure) and unrepaired KSO flips at the
    crash are part of the backend's durable state."""

    @pytest.mark.parametrize("plan", [
        FaultPlan(capacity_pressure_rate=0.3, seed=3),
        FaultPlan(kso_corruption_rate=0.3, seed=3),
    ], ids=["capacity_pressure", "kso_corruption"])
    def test_every_kill_point_recovers_the_uninterrupted_run(
            self, tmp_path, plan):
        scenario = Scenario(Trace((Tenant(3, 40, 40),)),
                            Topology(backend="offload", snapshot_every=4),
                            Faults(offload=plan))
        reference = DurableRun(build_engine(scenario),
                               scenario.trace.requests(),
                               tmp_path / "reference", snapshot_every=4)
        states = {0: _live_states(reference)}
        while reference.step():
            states[reference.steps] = _live_states(reference)
        states[reference.steps] = _live_states(reference)
        expected = _events_by_rid(reference)
        stats = [s["supervisor_stats"] for step in states.values()
                 for s in step.values()]
        fired = "flush_deferrals" if plan.capacity_pressure_rate \
            else "corrupted_heads"
        assert max(s[fired] for s in stats) > 0       # non-vacuous

        for kill_at in range(1, reference.steps + 1):
            directory = tmp_path / f"kill-{kill_at}"
            run = DurableRun(build_engine(scenario),
                             scenario.trace.requests(), directory,
                             snapshot_every=4,
                             crash=CrashPlan(kill_at_step=kill_at,
                                             kind="kill_before_fsync"))
            with pytest.raises(WorkerKilledError):
                run.serve()
            run, _ = recover(directory, build_engine(scenario),
                             snapshot_every=4)
            assert _live_states(run) == states[run.steps], \
                f"backend state diverged recovering a kill at {kill_at}"
            while run.step():
                assert _live_states(run) == states[run.steps], \
                    f"step {run.steps} diverged after a kill at {kill_at}"
            assert _events_by_rid(run) == expected
