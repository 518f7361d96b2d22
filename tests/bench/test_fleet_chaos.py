"""Smoke test for the fleet resilience benchmark
(`python -m repro.bench.fleet_chaos`).

Runs the real gray-failure sweep and overload A/B at a small
configuration and checks the ``BENCH_fleet_chaos.json`` it writes: its
claims hold, every gray kind finishes bit-identical to the fault-free reference with
availability intact, slow/stuck workers actually fail over with a
measured latency, and the brownout ladder sheds less than the no-ladder
baseline with every browned-out token stage-attributed.
"""

import json

import pytest

from repro.bench.fleet_chaos import (RESULT_NAME, SCHEMA_VERSION,
                                     run_fleet_chaos)
from repro.bench.registry import check_artifact
from repro.faults import GRAY_KINDS


@pytest.fixture(scope="module")
def out(tmp_path_factory):
    out = tmp_path_factory.mktemp("fleet_chaos")
    run_fleet_chaos(seed=0, n_steady=6, n_burst=4, output_tokens=8,
                    n_workers=4, blocks_per_worker=64, snapshot_every=4,
                    out_dir=out)
    return out


@pytest.fixture(scope="module")
def payload(out):
    return json.loads((out / RESULT_NAME).read_text())


def test_writes_valid_payload(out, payload):
    assert check_artifact("fleet_chaos", out) == []
    assert payload["benchmark"] == "fleet_chaos"
    assert payload["schema_version"] == SCHEMA_VERSION


def test_gray_sweep_covers_every_kind_bit_identically(payload):
    kinds = {point["kind"]: point for point in payload["gray"]["kinds"]}
    assert set(kinds) == set(GRAY_KINDS)
    for point in kinds.values():
        assert point["bit_identical"]
        assert point["availability"] >= 0.99


def test_slow_and_stuck_fail_over_with_measured_latency(payload):
    kinds = {point["kind"]: point for point in payload["gray"]["kinds"]}
    for kind in ("slow_worker", "stuck_worker"):
        assert kinds[kind]["failovers"] >= 1
        assert kinds[kind]["failover_latency_max_s"] > 0.0
    assert kinds["flapping_worker"]["failovers"] == 0
    assert kinds["flapping_worker"]["worker_suspects"] >= 2


def test_ladder_sheds_less_than_baseline(payload):
    brownout = payload["brownout"]
    assert brownout["baseline"]["shed_fraction"] > 0.0
    assert brownout["ladder"]["shed_fraction"] \
        < brownout["baseline"]["shed_fraction"]
    assert brownout["baseline"]["brownout_tokens"] == 0
    assert brownout["ladder"]["brownout_tokens"] >= 1
    assert brownout["attributed_tokens_consistent"]
