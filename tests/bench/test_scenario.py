"""The scenario driver: its traces, and served == solo on drawn worlds.

The trace digests below were taken from the four generators the
:class:`~repro.bench.scenario.Trace` spec replaced (a seeded Poisson
stream, chaos bursts, the two-tenant fleet trace and the overload trace),
for every parameter set the benchmarks, test fixtures, the serving-trace
benchmark and the multi-tenant example use.  Each spec must rebuild its
requests byte for byte: ids, arrival times, tenants, output budgets,
charged lengths and prompt ids.
"""

import dataclasses
import hashlib
import os
import pathlib
import tempfile
from collections import Counter, defaultdict

import pytest
from hypothesis import HealthCheck, example, given, settings

from repro.bench import chaos, fleet, fleet_chaos, recovery, serve
from repro.bench.scenario import (Faults, Scenario, Tenant, Topology, Trace,
                                  build_fleet, run, served_outputs,
                                  solo_outputs)
from repro.faults import CRASH_KINDS, CrashPlan, FaultPlan, GrayFailurePlan
from repro.serve.events import INPUT_KINDS
from repro.fleet import HealthPolicy
from tests.scenarios import scenarios


def digest(requests) -> str:
    h = hashlib.sha256()
    for r in requests:
        h.update(repr((r.request_id, float(r.arrival_s), r.tenant,
                       r.max_new_tokens, r.charged_prompt_tokens,
                       r.prompt.dtype.str, len(r.prompt))).encode())
        h.update(r.prompt.tobytes())
    return h.hexdigest()[:16]


def poisson(n, rate, prompt, output, charged=None, seed=0):
    return Trace((Tenant(n, prompt, output, seed=seed, rate=rate,
                         charged=charged),))


def _traces():
    traces = {}
    for n, p, o in ((6, 24, 8), (3, 16, 4)):
        for rate in (2.0, 200.0):
            for ctx in (8192, 32768, 131072):
                traces[f"serve-{n}-{p}-{o}-{rate:g}-{ctx}"] = serve.scenario(
                    "longsight", rate, ctx, n, p, o, 0).trace
    for n in (10, 2):
        for workload in chaos.WORKLOADS:
            traces[f"chaos-{workload}-{n}"] = chaos.scenario(
                workload, "LongSight", n, 0.0, 0).trace
    traces["recovery-4-16"] = recovery.scenario(4, 24, 16, 65536, 50.0,
                                                0).trace
    traces["recovery-3-10"] = recovery.scenario(3, 24, 10, 65536, 50.0,
                                                0).trace
    # tests/durable/conftest.py's make_workload
    for n, p, o, s in ((3, 24, 8, 7), (2, 24, 8, 3), (6, 24, 8, 11),
                       (8, 24, 20, 13), (3, 24, 8, 8), (4, 24, 8, 7)):
        traces[f"durable-{n}-{p}-{o}-{s}"] = poisson(n, 50.0, p, o, 65536, s)
    for ns, nb, o in ((8, 8, 32), (6, 6, 32), (10, 6, 8), (6, 4, 8),
                      (4, 2, 8)):
        for burst in (True, False):
            traces[f"fleet-{ns}-{nb}-{o}-{burst}"] = fleet.trace(
                ns, nb, 0, o, include_burst=burst)
    for burst in (True, False):
        traces[f"fleet-4-4-seed3-{burst}"] = fleet.trace(
            4, 4, seed=3, include_burst=burst)
    traces["overload-40"] = fleet_chaos.overload_scenario(
        40, 8.0, 0, None, 48, 1.0).trace
    traces["serving-trace-24"] = poisson(24, 50.0, 24, 32, 131072, 11)
    for n in (24, 8):
        traces[f"example-{n}"] = poisson(n, 2.0, 24, 16, 131072, 11)
    traces["crossval-32768"] = poisson(5, 200.0, 24, 10, 32768)
    traces["crossval-8192"] = poisson(5, 200.0, 24, 10, 8192)
    traces["crossval-paired"] = poisson(7, 3.0, 20, 5, 32768, seed=1)
    traces["serving-sim-actual"] = poisson(20, 1.0, 24, 10, seed=3)
    traces["serving-sim-jitter"] = poisson(50, 1.0, 24, 10, 1000)
    traces["serving-faults"] = poisson(6, 2.0, 20, 16, 32768, seed=3)
    traces["durable-brownout"] = poisson(8, 500.0, 40, 8, 65536, seed=7)
    return traces


#: content digests of the replaced generators' output.
DIGESTS = {
    "serve-6-24-8-2-8192": "8892633914a97873",
    "serve-6-24-8-2-32768": "27732913ae53f634",
    "serve-6-24-8-2-131072": "277f356c4d4a510b",
    "serve-6-24-8-200-8192": "cb4c2891960851ae",
    "serve-6-24-8-200-32768": "2c4c31a444fe1c6f",
    "serve-6-24-8-200-131072": "c8d9fbe499dd5bc2",
    "serve-3-16-4-2-8192": "db57a62a0ec0534e",
    "serve-3-16-4-2-32768": "2c612d3652da5cb1",
    "serve-3-16-4-2-131072": "9280c5bc6f50b977",
    "serve-3-16-4-200-8192": "451a9ef4f2a4b2e7",
    "serve-3-16-4-200-32768": "8e9c06a19f5cc751",
    "serve-3-16-4-200-131072": "8e45de65abc6a55c",
    "chaos-steady-10": "fc643904d97161ab",
    "chaos-burst-10": "8867d431c5348e9d",
    "chaos-steady-2": "ca9d787ef9c03227",
    "chaos-burst-2": "363d85d249873aba",
    "recovery-4-16": "413e0cff7ceab23a",
    "recovery-3-10": "710964eed28e6b16",
    "durable-3-24-8-7": "d64a28c7234cedbe",
    "durable-2-24-8-3": "84a55c0f5f085b33",
    "durable-6-24-8-11": "4978b742fd50bdab",
    "durable-8-24-20-13": "40323c5bece7ecee",
    "durable-3-24-8-8": "0b9ac07aa598caff",
    "durable-4-24-8-7": "5d53fc6dc95d2ca1",
    "fleet-8-8-32-True": "720b4f004da514c0",
    "fleet-8-8-32-False": "c47888bd8e379eab",
    "fleet-6-6-32-True": "72aed96908a341ed",
    "fleet-6-6-32-False": "816d4f2b92aafa57",
    "fleet-10-6-8-True": "9b62b8ba4830afae",
    "fleet-10-6-8-False": "12b1baa779756c02",
    "fleet-6-4-8-True": "82f605733e151d5f",
    "fleet-6-4-8-False": "f6e8f800c7392414",
    "fleet-4-2-8-True": "a6f66df277d91621",
    "fleet-4-2-8-False": "ccb2158c39f88312",
    "fleet-4-4-seed3-True": "fe15afcf6cdee64e",
    "fleet-4-4-seed3-False": "8bfa6a9ea1a767c5",
    "overload-40": "45da5ca56f52ee4e",
    "serving-trace-24": "4298ef2fe9f41e9d",
    "example-24": "33b8cefa4b8b6657",
    "example-8": "cff06b3b7f17cc87",
    "crossval-32768": "51d2607d318ee396",
    "crossval-8192": "4e2cefd801e49876",
    "crossval-paired": "1f4232e459e35235",
    "serving-sim-actual": "e126f0c6cbd7f895",
    "serving-sim-jitter": "6543699ffdfdb633",
    "serving-faults": "93560bc64f0ec5d3",
    "durable-brownout": "65fabb8add127c41",
}


def test_every_pinned_trace_is_built():
    assert set(_traces()) == set(DIGESTS)


@pytest.mark.parametrize("name", sorted(DIGESTS))
def test_trace_reproduces_the_replaced_generator(name):
    trace = _traces()[name]
    assert digest(trace.requests()) == DIGESTS[name]
    # fresh request objects per call, same content
    assert digest(trace.requests()) == DIGESTS[name]


#: drawn scenarios per run; CI's long form sets ``SCENARIO_EXAMPLES``.
EXAMPLES = int(os.environ.get("SCENARIO_EXAMPLES", "40"))


class StreamFolds:
    """The fleet facts the drawn property holds a fleet's stream to,
    folded record by record and checked after every router iteration:

    - each live request (injected, neither finished nor rejected) is held
      by exactly one worker: its injects less its departures;
    - each ``depart`` matches exactly one ``migrate`` from that worker;
    - a worker's inputs (``inject``, ``depart``) arrive between its
      steps, so in each step's bucket of a run that never crashed they
      come before every computed record.
    """

    def __init__(self) -> None:
        self.held = defaultdict(Counter)       # rid -> worker -> holds
        self.done = set()
        self.departs, self.migrates = Counter(), Counter()
        self.buckets = defaultdict(list)       # worker -> kinds so far

    def apply(self, record) -> None:
        kind, data, worker = record.kind, record.data, record.worker
        if kind == "inject":
            self.held[data["rid"]][worker] += 1
        elif kind == "depart":
            self.held[data["rid"]][worker] -= 1
            self.departs[data["rid"], worker] += 1
        elif kind == "migrate":
            self.migrates[data["rid"], data["source"]] += 1
        elif kind in ("finish", "reject"):
            self.done.add(data["rid"])
        if worker is None:
            return
        if kind == "step":
            inputs = [k in INPUT_KINDS for k in self.buckets.pop(worker, [])]
            assert inputs == sorted(inputs, reverse=True), (worker, data)
        else:
            self.buckets[worker].append(kind)

    def check(self) -> None:
        for rid, holds in self.held.items():
            if rid not in self.done:
                assert sorted(n for n in holds.values() if n) == [1], \
                    (rid, holds)
        assert self.departs == self.migrates


#: a durable fleet whose tight pools migrate a session each way.
MIGRATING = Scenario(
    Trace((Tenant(8, 24, 20, seed=13, rate=50.0, charged=65_536),)),
    Topology(n_blocks=8, workers=2, snapshot_every=3))


@settings(max_examples=EXAMPLES, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(scenario=scenarios())
@example(scenario=MIGRATING)
def test_drawn_scenario_serves_every_request_as_solo(scenario):
    expected = solo_outputs(scenario)
    if scenario.topology.backend == "offload":
        # On a healthy device the offload backend is the kernel: its
        # tokens are the software hybrid's, in bits.
        assert solo_outputs(dataclasses.replace(
            scenario, faults=Faults(offload=FaultPlan.none()))) \
            == solo_outputs(dataclasses.replace(
                scenario, topology=dataclasses.replace(scenario.topology,
                                                       backend="longsight")))
    if not scenario.topology.workers:
        assert run(scenario).outputs == expected
        return
    folds = StreamFolds()
    with tempfile.TemporaryDirectory(prefix="scenario-") as tmp:
        router = build_fleet(scenario, pathlib.Path(tmp))
        router.start(scenario.trace.requests())
        while router.step():
            for record in router.records:
                folds.apply(record)
            folds.check()
        report = router.finish()
    assert set(folds.held) == {e.request_id for e in report.events}
    assert served_outputs(router) == expected


def test_a_second_fleet_run_reports_and_budgets_only_its_own_moves():
    """Each ``FleetRouter.run`` starts its own record stream: a second run
    of the same trace reports its own migrations, not both runs', and its
    sessions spend a fresh migration budget."""
    scenario = dataclasses.replace(MIGRATING, topology=dataclasses.replace(
        MIGRATING.topology, snapshot_every=None))
    router = build_fleet(scenario)
    router.max_migrations = 1

    def counts():   # the stream's records per kind (health follows wall time)
        return {k: n for k, n in router.log.counts.items() if k != "health"}

    first = router.run(scenario.trace.requests())
    assert first.migrations == 2
    first_counts = counts()
    assert first_counts["migrate"] == 2 and first_counts["step"] > 0
    second = router.run(scenario.trace.requests())
    assert second is not first
    assert second.moves == first.moves and max(second.moves.values()) == 1
    assert sum(e.migrations for e in second.events) == 2
    assert counts() == first_counts
    assert served_outputs(router) == solo_outputs(scenario)


def test_one_token_request_is_not_preempted_past_its_budget():
    """A one-token request whose prefill emits its token in the step a
    longer session's growth needs its block: it must retire with that one
    token, not be preempted, resumed and replayed into a second."""
    scenario = Scenario(
        Trace((Tenant(1, 1, 1, rate=500.0, name="a"),
               Tenant(1, 1, 1, rate=500.0, name="b", id_offset=100),
               Tenant(1, 13, 3, seed=104, name="c", id_offset=200))),
        Topology(n_blocks=2))
    outcome = run(scenario)
    assert outcome.outputs == solo_outputs(scenario)
    assert outcome.report.preemptions == 0


@pytest.mark.parametrize("kind", CRASH_KINDS)
def test_a_killed_durable_run_is_recovered_and_records_its_history_once(
        kind):
    """``run`` kills, recovers and continues a durable engine: outputs and
    the record stream (analytic times included) are the uninterrupted
    run's, whatever step and crash kind the kill lands on."""
    scenario = Scenario(
        Trace((Tenant(4, 24, 8, rate=50.0, charged=65_536,
                      prefix_tokens=16),)),
        Topology(snapshot_every=4, prefix_caching=True))
    plain = run(scenario)
    facts = [(r.kind, r.data) for r in plain.records]
    steps = sum(r.kind == "step" for r in plain.records)
    for kill_at in sorted({1, steps // 2, steps - 1}):
        crashed = run(dataclasses.replace(scenario, faults=Faults(
            crashes={0: CrashPlan(kill_at_step=kill_at, kind=kind)})))
        assert crashed.deaths == [kill_at]
        assert len(crashed.recoveries) == 1
        assert crashed.outputs == plain.outputs == solo_outputs(scenario)
        assert [(r.kind, r.data) for r in crashed.records] == facts


def test_restores_and_failovers_are_router_records():
    """A killed fleet worker's restore and a stuck worker's failover are
    records on the router's log, and the report's counts and latencies
    are their folds."""
    trace = fleet.trace(4, 2, seed=0)
    killed = run(Scenario(trace, fleet.fleet_topology(2, 64, 4,
                                                      snapshot_every=4),
                          Faults(crashes={1: CrashPlan(kill_at_step=3)})))
    restores = [r for r in killed.records if r.kind == "restore"]
    assert [r.data for r in restores] == [{"worker": 1}]
    assert killed.report.worker_restores == 1

    stuck = run(Scenario(
        trace, fleet.fleet_topology(
            2, 64, 4, snapshot_every=4,
            health=HealthPolicy(step_deadline_s=1.0)),
        Faults(gray={0: GrayFailurePlan(kind="stuck_worker",
                                        start_step=3)})))
    failovers = [r for r in stuck.records if r.kind == "failover"]
    assert [(r.data["worker"], r.data["recovered"]) for r in failovers] \
        == [(0, True)]
    assert stuck.report.failovers == 1
    assert stuck.report.failover_latency_s \
        == [r.data["latency_s"] for r in failovers]
    assert stuck.outputs == killed.outputs == solo_outputs(
        Scenario(trace))
