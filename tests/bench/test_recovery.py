"""Smoke test for the crash-recovery benchmark
(`python -m repro.bench.recovery`).

Runs the real kill-and-recover measurement at a tiny configuration and
checks the ``BENCH_recovery.json`` it writes: its claims hold, the
recovery path beats
recompute, the replay accounting is populated, and the recovered token
streams are bit-identical to the uninterrupted run.
"""

import json

import pytest

from repro.bench.recovery import RESULT_NAME, SCHEMA_VERSION, run_recovery
from repro.bench.registry import check_artifact


@pytest.fixture(scope="module")
def out(tmp_path_factory):
    out = tmp_path_factory.mktemp("recovery")
    run_recovery(n_requests=3, output_tokens=10, snapshot_every=4,
                 seed=0, out_dir=out)
    return out


@pytest.fixture(scope="module")
def payload(out):
    return json.loads((out / RESULT_NAME).read_text())


def test_writes_valid_payload(out, payload):
    assert check_artifact("recovery", out) == []
    assert payload["benchmark"] == "recovery"
    assert payload["schema_version"] == SCHEMA_VERSION


def test_recovery_beats_recompute(payload):
    recovery = payload["recovery"]
    assert recovery["speedup_vs_recompute"] > 1.0
    assert recovery["recovery_s"] \
        == recovery["snapshot_load_s"] + recovery["replay_s"]


def test_replay_accounting_is_coherent(payload):
    recovery = payload["recovery"]
    crash = payload["crash"]
    assert crash["died_at_step"] == crash["kill_step"]
    # The resume point reached by replay is exactly the crash step.
    assert recovery["snapshot_step"] + recovery["steps_replayed"] \
        == crash["kill_step"]
    assert recovery["tokens_replayed"] >= 0
    assert not recovery["stale_wal"]


def test_outputs_bit_identical(payload):
    identity = payload["identity"]
    assert identity["outputs_bit_identical"] is True
    assert identity["sessions"] == 3
    assert identity["tokens_compared"] \
        == payload["uninterrupted"]["tokens_generated"]
