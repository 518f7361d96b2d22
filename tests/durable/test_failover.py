"""Property: cross-worker failover preserves bit-identity.

For *every* (gray-failure kind, onset step) pair hypothesis draws, a
two-worker durable fleet whose worker 0 goes gray mid-run must finish
the identical trace with token streams bit-identical to the fault-free
run — whether the sessions fail over (slow/stuck: snapshot + WAL suffix
into a fresh engine, live sessions shipped to the sibling) or the
worker self-heals (flapping at period 1 never strikes twice in a row).
"""

from __future__ import annotations

import tempfile

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.bench.fleet import fleet_topology
from repro.bench.scenario import (Faults, Scenario, build_fleet,
                                  served_outputs as _fleet_outputs)
from repro.fleet import HealthPolicy
from repro.system.faults import GRAY_KINDS, GrayFailurePlan

N_REQUESTS = 4
OUTPUT_TOKENS = 8
HEALTH = HealthPolicy(step_deadline_s=1.0, fail_after_deadline_misses=2)

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
