"""Smoke test for the attention microbenchmark (`python -m repro.bench.micro`).

Runs the real benchmark at a tiny configuration and checks the
``BENCH_attention.json`` schema v4 it writes: units, per-backend series
lengths with a spread beside every time, ``null`` prefill entries for the
quadratic reference above its cap, per-backend speedup curves, and a
strictly increasing context axis.  ``tests/bench/test_artifacts.py``
holds a run like these to the committed artifact's shape.
"""

import json

import numpy as np
import pytest

from repro.bench.micro import (BACKENDS, QUADRATIC_PREFILL, RESULT_NAME,
                               SCHEMA_VERSION, main, run_micro)
from repro.bench.registry import check_artifact


@pytest.fixture
def tiled(key_tile):
    """Prefill blocks of 32 queries stream 64-column key tiles, so the
    tiny contexts below take several."""
    key_tile(64, 32)


def _tiny_run(tmp_path, contexts=(64, 128), **overrides):
    kwargs = dict(contexts=contexts, repeats=1, window=16, n_sink=4,
                  top_k=8, n_q_heads=4, n_kv_heads=2, head_dim=16,
                  block_size=32, max_reference_context=1 << 20,
                  out_dir=tmp_path)
    kwargs.update(overrides)
    return run_micro(**kwargs)


def test_writes_valid_payload(tmp_path, tiled):
    table = _tiny_run(tmp_path)
    payload = json.loads((tmp_path / RESULT_NAME).read_text())
    assert check_artifact("attention_micro", tmp_path) == []
    assert payload["benchmark"] == "attention_micro"
    assert payload["schema_version"] == SCHEMA_VERSION == 4
    assert payload["contexts"] == [64, 128]
    assert "context" in table.render()


def test_units_and_series_shapes(tmp_path, tiled):
    _tiny_run(tmp_path, repeats=3)
    payload = json.loads((tmp_path / RESULT_NAME).read_text())
    assert set(payload["units"]) >= {"context", "decode_s", "decode_iqr_s",
                                     "prefill_s", "prefill_iqr_s", "speedup"}
    assert "median" in payload["units"]["decode_s"]
    for name in BACKENDS:
        for phase in ("decode", "prefill"):
            values = payload["backends"][name][f"{phase}_s"]
            spread = payload["backends"][name][f"{phase}_iqr_s"]
            assert len(values) == len(spread) == len(payload["contexts"])
            assert all(t > 0 for t in values)
            assert all(r >= 0 for r in spread)
    for phase in ("decode", "prefill"):
        curves = payload["speedup"][phase]
        assert set(curves) == set(BACKENDS) - {"hybrid_reference"}
        for values in curves.values():
            assert len(values) == len(payload["contexts"])


def test_reference_cap_nulls_quadratic_prefill(tmp_path, tiled):
    """Above the cap, quadratic prefill entries (and their speedups) null."""
    assert QUADRATIC_PREFILL == ("hybrid_reference",)
    _tiny_run(tmp_path, max_reference_context=64)
    payload = json.loads((tmp_path / RESULT_NAME).read_text())
    assert check_artifact("attention_micro", tmp_path) == []
    for name in QUADRATIC_PREFILL:
        prefill = payload["backends"][name]["prefill_s"]
        assert prefill[0] is not None and prefill[1] is None
        assert payload["backends"][name]["prefill_iqr_s"][1] is None
    # the hybrid and sliding prefill series stay complete past the cap
    for name in set(BACKENDS) - set(QUADRATIC_PREFILL):
        assert all(t is not None
                   for t in payload["backends"][name]["prefill_s"])
    assert payload["speedup"]["prefill"]["hybrid"][1] is None
    # decode series are never capped
    for name in BACKENDS:
        assert all(t is not None
                   for t in payload["backends"][name]["decode_s"])


def test_contexts_deduplicated_and_sorted(tmp_path, tiled):
    _tiny_run(tmp_path, contexts=(128, 64, 128))
    payload = json.loads((tmp_path / RESULT_NAME).read_text())
    assert payload["contexts"] == [64, 128]
    contexts = np.asarray(payload["contexts"])
    assert (np.diff(contexts) > 0).all()


def test_validate_payload_rejects_wrong_schema_version(tmp_path, tiled):
    """A fresh run stamped with an old schema_version fails the check."""
    _tiny_run(tmp_path)
    path = tmp_path / RESULT_NAME
    payload = json.loads(path.read_text())
    payload["schema_version"] = 1
    path.write_text(json.dumps(payload))
    problems = check_artifact("attention_micro", tmp_path)
    assert any("schema_version" in p for p in problems)


def test_cli_main(tmp_path, capsys, tiled):
    rc = main(["--contexts", "64", "--repeats", "1", "--window", "16",
               "--n-sink", "4", "--top-k", "8", "--n-q-heads", "4",
               "--n-kv-heads", "2", "--head-dim", "16", "--block-size", "32",
               "--out-dir", str(tmp_path)])
    assert rc == 0
    out = capsys.readouterr().out
    assert "attention microbenchmark" in out and "median of 1" in out
    assert (tmp_path / RESULT_NAME).exists()
