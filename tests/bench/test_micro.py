"""Smoke test for the attention microbenchmark (`python -m repro.bench.micro`).

Runs the real benchmark at a tiny configuration and validates the
``BENCH_attention.json`` schema v3: required keys, units, per-backend
series lengths, ``null`` prefill entries for quadratic backends above the
reference cap, per-backend speedup curves, and a strictly increasing
context axis.
"""

import json

import numpy as np

from repro.bench.micro import (BACKENDS, QUADRATIC_PREFILL, RESULT_NAME,
                               SCHEMA_VERSION, main, run_micro,
                               validate_payload)


def _tiny_run(tmp_path, contexts=(64, 128), **overrides):
    kwargs = dict(contexts=contexts, repeats=1, window=16, n_sink=4,
                  top_k=8, n_q_heads=4, n_kv_heads=2, head_dim=16,
                  block_size=32, prefill_tile=64,
                  max_reference_context=1 << 20, out_dir=tmp_path)
    kwargs.update(overrides)
    return run_micro(**kwargs)


def test_writes_valid_payload(tmp_path):
    table = _tiny_run(tmp_path)
    payload = json.loads((tmp_path / RESULT_NAME).read_text())
    assert validate_payload(payload) == []
    assert payload["benchmark"] == "attention_micro"
    assert payload["schema_version"] == SCHEMA_VERSION == 3
    assert payload["contexts"] == [64, 128]
    assert "context" in table.render()


def test_units_and_series_shapes(tmp_path):
    _tiny_run(tmp_path)
    payload = json.loads((tmp_path / RESULT_NAME).read_text())
    assert set(payload["units"]) >= {"context", "decode_s", "prefill_s",
                                     "speedup"}
    for name in BACKENDS:
        for phase in ("decode_s", "prefill_s"):
            values = payload["backends"][name][phase]
            assert len(values) == len(payload["contexts"])
            assert all(t > 0 for t in values)
    for phase in ("decode", "prefill"):
        curves = payload["speedup"][phase]
        assert set(curves) == set(BACKENDS) - {"hybrid_reference"}
        for values in curves.values():
            assert len(values) == len(payload["contexts"])


def test_reference_cap_nulls_quadratic_prefill(tmp_path):
    """Above the cap, quadratic prefill entries (and their speedups) null."""
    _tiny_run(tmp_path, max_reference_context=64)
    payload = json.loads((tmp_path / RESULT_NAME).read_text())
    assert validate_payload(payload) == []
    for name in QUADRATIC_PREFILL:
        prefill = payload["backends"][name]["prefill_s"]
        assert prefill[0] is not None and prefill[1] is None
    # tiled/sliding prefill series stay complete past the cap
    for name in set(BACKENDS) - set(QUADRATIC_PREFILL):
        assert all(t is not None
                   for t in payload["backends"][name]["prefill_s"])
    assert payload["speedup"]["prefill"]["hybrid_tiled"][1] is None
    # decode series are never capped
    for name in BACKENDS:
        assert all(t is not None
                   for t in payload["backends"][name]["decode_s"])


def test_contexts_deduplicated_and_sorted(tmp_path):
    _tiny_run(tmp_path, contexts=(128, 64, 128))
    payload = json.loads((tmp_path / RESULT_NAME).read_text())
    assert payload["contexts"] == [64, 128]
    contexts = np.asarray(payload["contexts"])
    assert (np.diff(contexts) > 0).all()


def test_validate_payload_flags_problems(tmp_path):
    _tiny_run(tmp_path)
    payload = json.loads((tmp_path / RESULT_NAME).read_text())
    del payload["backends"]["hybrid_fast"]
    payload["contexts"] = payload["contexts"][::-1]
    payload["backends"]["hybrid_tiled"]["prefill_s"][0] = None
    problems = validate_payload(payload)
    assert any("hybrid_fast" in p for p in problems)
    assert any("increasing" in p for p in problems)
    assert any("hybrid_tiled" in p and "null" in p for p in problems)
    assert validate_payload({}) != []


def test_validate_payload_rejects_wrong_schema_version(tmp_path):
    _tiny_run(tmp_path)
    payload = json.loads((tmp_path / RESULT_NAME).read_text())
    payload["schema_version"] = 1
    assert any("schema_version" in p for p in validate_payload(payload))


def test_cli_main(tmp_path, capsys):
    rc = main(["--contexts", "64", "--repeats", "1", "--window", "16",
               "--n-sink", "4", "--top-k", "8", "--n-q-heads", "4",
               "--n-kv-heads", "2", "--head-dim", "16", "--block-size", "32",
               "--prefill-tile", "64", "--out-dir", str(tmp_path)])
    assert rc == 0
    out = capsys.readouterr().out
    assert "attention microbenchmark" in out
    assert (tmp_path / RESULT_NAME).exists()
