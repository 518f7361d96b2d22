"""End-to-end ``--smoke`` runs: schema, zero failures, a check that fails."""

import json
import pathlib
import subprocess
import sys

import pytest

PERF = pathlib.Path(__file__).resolve().parents[1]
CONTRACT = json.loads((PERF.parent / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in CONTRACT["workloads"]]


def _run(*args):
    proc = subprocess.run([sys.executable, str(PERF / "run.py"), "--smoke",
                           *args], stdout=subprocess.PIPE, text=True,
                          timeout=120)
    return proc.returncode, proc.stdout


def test_smoke_suite_prints_every_metric_and_fails_nothing():
    ledger = PERF / "history" / "ledger.jsonl"
    rows_before = ledger.read_text().count("\n") if ledger.exists() else 0
    code, out = _run("--seed", "5")
    assert code == 0, out
    suite = json.loads((PERF / "out" / "suite-seed5-small.json").read_text())
    assert list(suite["workloads"]) == WORKLOADS
    for name, doc in suite["workloads"].items():
        assert doc["correct"] and doc["failed"] == 0 and doc["attempted"] > 0
        assert set(doc["metrics"]) >= {m["name"]
                                       for m in CONTRACT["end_to_end"]}
        for metric in CONTRACT["end_to_end"]:
            summary = doc["metrics"][metric["name"]]
            assert 0 < summary["min"] <= summary["median"] <= summary["max"]
            assert metric["name"] in out
        assert set(doc["layer"]) >= {m["name"]
                                     for m in CONTRACT["per_layer"]}
        assert doc["layer"]["trace.coverage_frac"] >= 0.95
    # Engine-only workloads never touch the durable or fleet layers.
    for name in ("long_prompt", "shared_prefix_decode"):
        layer = suite["workloads"][name]["layer"]
        assert all(v == 0 for k, v in layer.items()
                   if k.startswith(("durable.", "fleet.")))
    assert suite["workloads"]["crash_recover"]["layer"][
        "durable.tokens_replayed"] > 0
    # A smoke run is not a measurement: no ledger row.
    rows_after = ledger.read_text().count("\n") if ledger.exists() else 0
    assert rows_after == rows_before


@pytest.mark.parametrize("trace, key", [("0", "end_to_end"),
                                        ("1", "per_layer")])
def test_driver_form_prints_the_contract_schema(trace, key):
    code, out = _run("--workload", "chat_burst", "--seed", "6",
                     "--seconds", "1", "--trace", trace)
    assert code == 0, out
    result = json.loads(out.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    assert list(result["metrics"]) == [m["name"] for m in CONTRACT[key]]
    for metric in CONTRACT[key]:
        value = result["metrics"][metric["name"]]
        assert value["unit"] == metric["unit"]
        assert isinstance(value["value"], (int, float))


def test_a_corrupted_output_token_fails_the_run():
    code, out = _run("--workload", "shared_prefix_decode", "--seed", "6",
                     "--seconds", "1", "--corrupt")
    assert code != 0
    result = json.loads(out.strip().splitlines()[-1])
    assert result["correct"] is False and result["failed"] > 0
