"""Smoke test for the chaos benchmark (`python -m repro.bench.chaos`).

Runs the real sweep at a tiny configuration and validates the
``BENCH_chaos.json`` schema: required keys, >= 3 strictly increasing
fault-rate points, per-system series lengths, and the dense-fallback
completion guarantee at every rate.
"""

import json

import pytest

from repro.bench.chaos import (OUTPUT_TOKENS, RESULT_NAME, SCHEMA_VERSION,
                               SERVING_SYSTEMS, WORKLOADS, main, run_chaos,
                               validate_payload)

pytestmark = pytest.mark.chaos


def _tiny_run(tmp_path, rates=(0.0, 0.5, 1.0)):
    return run_chaos(rates=rates, n_sessions=4, n_tokens=40, seed=0,
                     out_dir=tmp_path)


def test_writes_valid_payload(tmp_path):
    table = _tiny_run(tmp_path)
    payload = json.loads((tmp_path / RESULT_NAME).read_text())
    assert validate_payload(payload) == []
    assert payload["benchmark"] == "chaos"
    assert payload["schema_version"] == SCHEMA_VERSION
    assert payload["fault_rates"] == [0.0, 0.5, 1.0]
    assert "fault_rate" in table.render()


def test_series_shapes_and_guarantees(tmp_path):
    _tiny_run(tmp_path)
    payload = json.loads((tmp_path / RESULT_NAME).read_text())
    rates = payload["fault_rates"]
    for workload in WORKLOADS:
        for name in SERVING_SYSTEMS:
            points = payload["serving"][workload][name]
            assert len(points) == len(rates)
    longsight = payload["serving"]["steady"]["LongSight"]
    assert longsight[0]["degraded_token_fraction"] == 0.0
    # At rate 1 every decoded token degrades (the first comes from
    # prefill) and every session ends pinned, yet completes.
    assert longsight[-1]["degraded_token_fraction"] \
        == (OUTPUT_TOKENS - 1) / OUTPUT_TOKENS
    assert longsight[-1]["shed_sessions"] \
        == longsight[-1]["completed_sessions"] == 4
    assert all(point["completed"] for point in payload["functional"])
    assert payload["functional"][-1]["degraded_token_fraction"] == 1.0


def test_rates_deduplicated_sorted_and_minimum(tmp_path):
    _tiny_run(tmp_path, rates=(1.0, 0.0, 0.5, 1.0))
    payload = json.loads((tmp_path / RESULT_NAME).read_text())
    assert payload["fault_rates"] == [0.0, 0.5, 1.0]
    with pytest.raises(ValueError):
        run_chaos(rates=(0.0, 1.0), out_dir=tmp_path)


def test_validate_payload_flags_problems(tmp_path):
    _tiny_run(tmp_path)
    payload = json.loads((tmp_path / RESULT_NAME).read_text())
    del payload["serving"]["steady"]["LongSight"]
    payload["fault_rates"] = payload["fault_rates"][::-1]
    payload["functional"][0]["completed"] = False
    problems = validate_payload(payload)
    assert any("LongSight" in p for p in problems)
    assert any("increasing" in p for p in problems)
    assert any("fallback" in p for p in problems)
    assert validate_payload({}) != []


def test_seeded_reproducibility(tmp_path):
    _tiny_run(tmp_path)
    first = json.loads((tmp_path / RESULT_NAME).read_text())
    _tiny_run(tmp_path)
    second = json.loads((tmp_path / RESULT_NAME).read_text())
    assert first == second


def test_cli_main(tmp_path, capsys):
    rc = main(["--rates", "0", "0.5", "1", "--n-sessions", "3",
               "--n-tokens", "40", "--out-dir", str(tmp_path)])
    assert rc == 0
    out = capsys.readouterr().out
    assert "chaos sweep" in out
    assert (tmp_path / RESULT_NAME).exists()
