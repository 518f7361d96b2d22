"""Property: cross-worker failover preserves bit-identity.

For *every* (gray-failure kind, onset step) pair hypothesis draws, a
two-worker durable fleet whose worker 0 goes gray mid-run must finish
the identical trace with token streams bit-identical to the fault-free
run — whether the sessions fail over (slow/stuck: snapshot + WAL suffix
into a fresh engine, live sessions shipped to the sibling) or the
worker self-heals (flapping at period 1 never strikes twice in a row).
"""

from __future__ import annotations

import math
import tempfile

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.bench.fleet import fleet_topology
from repro.bench.scenario import (Faults, Scenario, build_fleet,
                                  served_outputs as _fleet_outputs)
from repro.durable import recover
from repro.faults import GRAY_KINDS, GrayFailurePlan
from repro.fleet import HealthPolicy

N_REQUESTS = 4
OUTPUT_TOKENS = 8
#: Deadline strikes on the simulated stalls decide failover, as the fleet
#: benches' jitter-free health does: phi judges wall-clock step latency,
#: which host load can push into a strike on a flapping worker's healthy
#: step (phi strikes keep their own unit tests).
HEALTH = HealthPolicy(step_deadline_s=1.0, suspect_phi=math.inf,
                      fail_phi=math.inf)

#: fault-free reference outputs, computed once per module run.
_reference_cache = {}


def _run_fleet(requests, plan):
    with tempfile.TemporaryDirectory() as tmp:
        fleet = build_fleet(Scenario(
            topology=fleet_topology(2, 64, 4, snapshot_every=4,
                                    health=HEALTH),
            faults=Faults(gray={} if plan is None else {0: plan})), tmp)
        report = fleet.run(requests)
        return report, _fleet_outputs(fleet)


def _reference(make_workload):
    if "outputs" not in _reference_cache:
        _, outputs = _run_fleet(make_workload(
            n_requests=N_REQUESTS, output_tokens=OUTPUT_TOKENS), None)
        _reference_cache["outputs"] = outputs
    return _reference_cache["outputs"]


@settings(max_examples=10, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(kind=st.sampled_from(GRAY_KINDS), start=st.integers(2, 12))
def test_failover_bit_identical_for_every_kind_and_onset(
        kind, start, make_workload):
    plan = GrayFailurePlan(
        kind=kind, start_step=start, stall_s=2.0,
        period=1 if kind == "flapping_worker" else 4)
    requests = make_workload(n_requests=N_REQUESTS,
                             output_tokens=OUTPUT_TOKENS)
    report, outputs = _run_fleet(requests, plan)
    assert outputs == _reference(make_workload)
    assert report.completed == N_REQUESTS
    assert report.shed == 0 and report.rejected == 0
    if kind == "flapping_worker":
        assert report.failovers == 0
    else:
        # Onset may postdate the whole run at late start steps; when the
        # stall did land, the worker must actually have failed over.
        assert report.failovers <= 1


def test_reference_outputs_are_nonempty(make_workload):
    outputs = _reference(make_workload)
    assert len(outputs) == N_REQUESTS
    assert all(len(tokens) == OUTPUT_TOKENS
               for tokens in outputs.values())


def test_a_failed_over_directory_recovers_without_its_drained_sessions(
        tmp_path, make_workload):
    """The drain's departures are inputs in the failed worker's log:
    recovering its directory again gives a run that holds none of the
    sessions the drain relocated, so none is reported twice."""
    fleet = build_fleet(Scenario(
        topology=fleet_topology(2, 64, 4, snapshot_every=4, health=HEALTH),
        faults=Faults(gray={0: GrayFailurePlan(kind="stuck_worker",
                                               start_step=3)})), tmp_path)
    fleet.start(make_workload(n_requests=6))
    drained = set()
    while fleet.step():
        drained |= {r.data["rid"] for r in fleet.records
                    if r.kind == "migrate" and r.data["reason"] == "failover"}
    report = fleet.finish()
    assert report.failovers == 1 and drained
    failed = fleet.workers[0]
    run, _ = recover(failed.durable_dir, failed.engine_factory())
    try:
        reported = {r.request_id for r in run.served}
        assert not reported & drained
        assert reported == {e.request_id for e in report.workers[0].events}
        assert run.idle
    finally:
        run.wal.close()
