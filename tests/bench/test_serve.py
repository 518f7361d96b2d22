"""Smoke test for the serving benchmark (`python -m repro.bench.serve`).

Runs the real sweep at a tiny configuration and checks the
``BENCH_serve.json`` it writes: its claims hold, sorted, deduplicated
axes, per-system series lengths, percentile sanity (p99 >= p50), pool
accounting, and the service guarantee (every non-rejected request got
its full output).
"""

import json

import pytest

from repro.bench.registry import check_artifact
from repro.bench.serve import (RESULT_NAME, SCHEMA_VERSION, SYSTEM_NAMES,
                               main, run_serve)


def _tiny_run(tmp_path, rates=(2.0, 200.0), contexts=(8192, 65536)):
    return run_serve(rates=rates, contexts=contexts, n_requests=3,
                     prompt_tokens=16, output_tokens=4, seed=0,
                     out_dir=tmp_path)


def test_writes_valid_payload(tmp_path):
    table = _tiny_run(tmp_path)
    payload = json.loads((tmp_path / RESULT_NAME).read_text())
    assert check_artifact("serve", tmp_path) == []
    assert payload["benchmark"] == "serve"
    assert payload["schema_version"] == SCHEMA_VERSION
    assert payload["arrival_rates"] == [2.0, 200.0]
    assert payload["contexts"] == [8192, 65536]
    assert "throughput_tps" in table.render()


def test_series_shapes_and_guarantees(tmp_path):
    _tiny_run(tmp_path)
    payload = json.loads((tmp_path / RESULT_NAME).read_text())
    n_points = len(payload["arrival_rates"]) * len(payload["contexts"])
    for name in SYSTEM_NAMES:
        points = payload["sweep"][name]
        assert len(points) == n_points
        for point in points:
            assert point["all_tokens_served"]
            assert point["ttft_p99_s"] >= point["ttft_p50_s"]
            assert point["tpot_p99_s"] >= point["tpot_p50_s"]
            assert 0 <= point["pool"]["high_watermark"] \
                <= point["pool"]["n_blocks"]


def test_axes_deduplicated_sorted_and_minimum(tmp_path):
    _tiny_run(tmp_path, rates=(200.0, 2.0, 200.0),
              contexts=(65536, 8192, 65536))
    payload = json.loads((tmp_path / RESULT_NAME).read_text())
    assert payload["arrival_rates"] == [2.0, 200.0]
    assert payload["contexts"] == [8192, 65536]
    with pytest.raises(ValueError):
        run_serve(rates=(2.0,), out_dir=tmp_path)
    with pytest.raises(ValueError):
        run_serve(contexts=(8192,), out_dir=tmp_path)


def test_cli_main(tmp_path, capsys):
    exit_code = main(["--rates", "2", "200", "--contexts", "8192", "65536",
                      "--n-requests", "2", "--prompt-tokens", "12",
                      "--output-tokens", "3",
                      "--out-dir", str(tmp_path)])
    assert exit_code == 0
    out = capsys.readouterr().out
    assert RESULT_NAME in out
    payload = json.loads((tmp_path / RESULT_NAME).read_text())
    assert check_artifact("serve", tmp_path) == []
