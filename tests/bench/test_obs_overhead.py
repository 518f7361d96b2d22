"""Smoke tests for ``python -m repro.bench.obs_overhead`` and the serve
bench's ``--trace-out`` flag.

The <5% overhead *gate* lives in ``tests/obs/test_overhead.py`` at the
real 512-step configuration; here we run tiny configurations and check
plumbing: the payload passes the artifact check, CLI exit codes, and
that the emitted Chrome trace explains at least 95% of the instrumented
wall time.
"""

import json

import pytest

from repro.bench.obs_overhead import (RESULT_NAME, SCHEMA_VERSION, main,
                                      run_obs_overhead)
from repro.bench.registry import check_artifact
from repro.bench.serve import main as serve_main


def test_writes_valid_payload(tmp_path):
    table = run_obs_overhead(steps=16, reps=1, out_dir=tmp_path)
    payload = json.loads((tmp_path / RESULT_NAME).read_text())
    assert check_artifact("obs_overhead", tmp_path) == []
    assert payload["benchmark"] == "obs_overhead"
    assert payload["schema_version"] == SCHEMA_VERSION
    assert payload["config"]["steps"] == 16
    rendered = table.render()
    for mode in ("baseline", "noop", "enabled"):
        assert mode in rendered


def test_rejects_bad_arguments(tmp_path):
    with pytest.raises(ValueError):
        run_obs_overhead(steps=0, out_dir=tmp_path)
    with pytest.raises(ValueError):
        run_obs_overhead(reps=0, out_dir=tmp_path)


def test_cli_main(tmp_path, capsys):
    exit_code = main(["--steps", "16", "--reps", "1",
                      "--out-dir", str(tmp_path)])
    assert exit_code == 0
    assert RESULT_NAME in capsys.readouterr().out
    payload = json.loads((tmp_path / RESULT_NAME).read_text())
    assert check_artifact("obs_overhead", tmp_path) == []


def test_serve_trace_out_covers_wall_time(tmp_path, capsys):
    """The ISSUE's acceptance criterion for ``--trace-out``: a valid
    Chrome trace whose root spans cover >= 95% of the traced wall time."""
    trace_path = tmp_path / "trace.json"
    exit_code = serve_main(
        ["--rates", "2", "50", "--contexts", "8192", "65536",
         "--n-requests", "2", "--prompt-tokens", "12",
         "--output-tokens", "3", "--out-dir", str(tmp_path),
         "--trace-out", str(trace_path)])
    assert exit_code == 0
    trace = json.loads(trace_path.read_text())
    events = trace["traceEvents"]
    assert events and all(e["ph"] == "X" for e in events)
    assert {"bench.serve_point", "serve.run", "engine.step"} <= \
        {e["name"] for e in events}
    payload = json.loads((tmp_path / "BENCH_serve.json").read_text())
    assert payload["trace"]["n_spans"] == len(events)
    assert payload["trace"]["root_coverage"] >= 0.95
