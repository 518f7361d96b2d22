"""Chaos x durability: supervised-offload degradation survives restore.

The satellite property: degradation the :class:`OffloadSupervisor`
records mid-decode (degraded tokens, fault-injector RNG position,
retry/repair telemetry) is part of the durable state — after a crash and
recovery the degraded_token_fraction must be identical to an
uninterrupted run, not merely "small".  A fault plan harsh enough to
degrade ~20% of sparse attempts makes any RNG-stream desync visible
immediately.
"""

import pytest

from repro.bench.serve import TINY_LS, TINY_MODEL
from repro.durable import DurableRun, recover
from repro.errors import WorkerKilledError
from repro.serve.scheduler import SloPolicy
from repro.system.faults import CrashPlan, FaultPlan
from repro.system.supervisor import (SupervisedOffloadBackend,
                                     SupervisorPolicy)

pytestmark = pytest.mark.chaos

#: One lost offload retry, then degrade: with a 0.5 timeout rate the
#: degradation probability per sparse attempt is 0.25 — high enough that
#: a desynced RNG stream diverges within a step or two of the restore.
FAULT_PLAN = FaultPlan(cxl_timeout_rate=0.5, seed=3)
POLICY = SupervisorPolicy(max_retries=1)


def _supervised_factory():
    def make_backend(request):
        return SupervisedOffloadBackend(
            TINY_MODEL, TINY_LS, plan=FAULT_PLAN, policy=POLICY,
            uid=request.request_id, flush_granularity=1)
    return make_backend


@pytest.fixture
def supervised_builder(engine_builder):
    def build():
        return engine_builder(make_backend=_supervised_factory())
    return build


def _events_by_rid(run):
    return {r.request_id: (list(r.outputs), r.events.degraded_tokens,
                           r.events.n_tokens)
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
        # tail is *re-executed*, so the restored injector/supervisor RNG
        # streams must resume at exactly the snapshotted position.
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
                  if r.backend is not None
                  and hasattr(r.backend, "durable_state")}
        fractions = {r.request_id: r.events.degraded_tokens
                     for r in run._arrivals}
        assert any(s["sparse_token_attempts"] > 0 for s in before.values())

        recovered, stats = recover(directory, supervised_builder(),
                                   snapshot_every=4)
        after = {r.request_id: r.backend.durable_state()
                 for r in recovered._arrivals
                 if r.backend is not None
                 and hasattr(r.backend, "durable_state")}
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
            return SupervisedOffloadBackend(
                TINY_MODEL, TINY_LS, plan=FaultPlan.total_failure(),
                policy=POLICY, uid=request.request_id, flush_granularity=1)

        def build():
            return engine_builder(make_backend=make_backend, policy=SloPolicy(
                max_decode_batch=4, shed_after_consecutive_degraded=2))
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
            assert isinstance(live[rid].backend, SupervisedOffloadBackend)
        assert {rid: r.backend.durable_state()
                for rid, r in live.items()} == before
        recovered.serve()
        assert _events_by_rid(recovered) == expected
