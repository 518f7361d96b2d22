"""Smoke test for the fleet benchmark (`python -m repro.bench.fleet`).

Runs the real worker-count sweep at a tiny configuration and checks the
``BENCH_fleet.json`` it writes: its claims hold, the axis starts at the single-engine
baseline, multi-worker points beat it on throughput, the shared-prefix
workload produces cache hits, and the fairness ratio stays bounded.
"""

import json

import pytest

from repro.bench.fleet import RESULT_NAME, SCHEMA_VERSION, run_fleet, trace
from repro.bench.registry import check_artifact


@pytest.fixture(scope="module")
def out(tmp_path_factory):
    out = tmp_path_factory.mktemp("fleet")
    run_fleet(workers_axis=(1, 2), n_steady=6, n_burst=6, seed=0,
              out_dir=out)
    return out


@pytest.fixture(scope="module")
def payload(out):
    return json.loads((out / RESULT_NAME).read_text())


def test_writes_valid_payload(out, payload):
    assert check_artifact("fleet", out) == []
    assert payload["benchmark"] == "fleet"
    assert payload["schema_version"] == SCHEMA_VERSION
    assert payload["workers_axis"] == [1, 2]


def test_fleet_beats_single_engine(payload):
    base, fleet = payload["sweep"]
    assert base["workers"] == 1 and fleet["workers"] == 2
    assert fleet["throughput_tps"] > base["throughput_tps"]


def test_shared_prefix_workload_hits_cache(payload):
    for point in payload["sweep"]:
        assert point["prefix"]["hits"] > 0
        assert 0 < point["prefix"]["hit_rate"] <= 1


def test_tenant_slos_reported_and_bounded(payload):
    for point in payload["sweep"]:
        for tenant in ("steady", "burst"):
            summary = point["tenants"][tenant]
            assert summary["requests"] > 0
            assert summary["ttft_p99_s"] >= summary["ttft_p50_s"]
    fairness = payload["fairness"]
    assert fairness["degradation_ratio"] <= fairness["limit"]


def test_axis_must_start_at_baseline(tmp_path):
    with pytest.raises(ValueError):
        run_fleet(workers_axis=(2, 4), out_dir=tmp_path)
    with pytest.raises(ValueError):
        run_fleet(workers_axis=(1,), out_dir=tmp_path)


def test_fairness_ab_traces_share_steady_stream():
    with_burst = trace(4, 4, seed=3).requests()
    without = trace(4, 4, seed=3, include_burst=False).requests()
    steady_a = [r for r in with_burst if r.tenant == "steady"]
    assert len(without) == len(steady_a) == 4
    for a, b in zip(steady_a, without):
        assert a.arrival_s == b.arrival_s
        assert (a.prompt == b.prompt).all()
