"""Every registered benchmark must ship a valid committed artifact.

``repro.bench.registry`` lists each ``BENCH_*.json`` a CLI writes; this
suite fails when an artifact is missing from ``results/``, unparseable,
schema-stale, or invalid under the owning module's ``validate_payload``.
That makes "bench exists but its numbers were never committed" a test
failure rather than a silent gap.
"""

import json

import pytest

from repro.bench import chaos, fleet, fleet_chaos, recovery, serve
from repro.bench.registry import (REGISTRY, BenchSpec, check_all,
                                  check_artifact)
from repro.bench.tables import results_dir


def test_registry_covers_known_artifacts():
    names = {spec.result_name for spec in REGISTRY.values()}
    assert names == {"BENCH_attention.json", "BENCH_chaos.json",
                     "BENCH_serve.json", "BENCH_fleet.json",
                     "BENCH_obs.json", "BENCH_recovery.json",
                     "BENCH_fleet_chaos.json"}


@pytest.mark.parametrize("bench_tag", sorted(REGISTRY))
def test_committed_artifact_is_valid(bench_tag):
    spec = REGISTRY[bench_tag]
    problems = check_artifact(spec)
    assert problems == [], "\n".join(problems)


def test_check_all_matches_per_spec_checks():
    assert check_all() == []


def test_missing_artifact_is_reported(tmp_path):
    problems = check_artifact(REGISTRY["chaos"], tmp_path)
    assert len(problems) == 1
    assert "missing" in problems[0]
    assert "repro.bench.chaos" in problems[0]


def test_unparseable_artifact_is_reported(tmp_path):
    spec = REGISTRY["serve"]
    (tmp_path / spec.result_name).write_text("{not json")
    problems = check_artifact(spec, tmp_path)
    assert problems and "unparseable" in problems[0]


def test_stale_schema_version_is_reported(tmp_path):
    spec = REGISTRY["attention_micro"]
    payload = json.loads((results_dir() / spec.result_name).read_text())
    payload["schema_version"] = 0
    (tmp_path / spec.result_name).write_text(json.dumps(payload))
    problems = check_artifact(spec, tmp_path)
    assert any("schema_version" in p for p in problems)


def test_wrong_benchmark_tag_is_reported(tmp_path):
    spec = REGISTRY["obs_overhead"]
    payload = json.loads((results_dir() / spec.result_name).read_text())
    payload["benchmark"] = "something_else"
    (tmp_path / spec.result_name).write_text(json.dumps(payload))
    problems = check_artifact(spec, tmp_path)
    assert any("benchmark tag" in p for p in problems)


def test_unregistered_spec_roundtrip(tmp_path):
    """A new BenchSpec line is all a future bench needs to be enforced."""
    spec = BenchSpec("repro.bench.chaos", "BENCH_future.json", "future")
    assert "missing" in check_artifact(spec, tmp_path)[0]


# -- the committed artifacts are what the code computes ----------------------


def _committed(spec_tag):
    return json.loads(
        (results_dir() / REGISTRY[spec_tag].result_name).read_text())


def _rerun_serve(payload, out_dir):
    config = payload["config"]
    serve.run_serve(rates=payload["arrival_rates"],
                    contexts=payload["contexts"],
                    n_requests=config["n_requests"],
                    prompt_tokens=config["prompt_tokens"],
                    output_tokens=config["output_tokens"],
                    seed=config["seed"], out_dir=out_dir)


def _rerun_chaos(payload, out_dir):
    config = payload["config"]
    chaos.run_chaos(rates=payload["fault_rates"],
                    n_sessions=config["n_sessions"],
                    n_tokens=config["n_tokens"], seed=config["seed"],
                    out_dir=out_dir)


def _rerun_fleet(payload, out_dir):
    config = payload["config"]
    fleet.run_fleet(workers_axis=payload["workers_axis"],
                    n_steady=config["n_steady"], n_burst=config["n_burst"],
                    output_tokens=config["output_tokens"],
                    charged_context=config["charged_context"],
                    blocks_per_worker=config["blocks_per_worker"],
                    max_decode_batch=config["max_decode_batch"],
                    fairness_limit=payload["fairness"]["limit"],
                    seed=config["seed"], out_dir=out_dir)


def _rerun_recovery(payload, out_dir):
    config = payload["config"]
    recovery.run_recovery(
        n_requests=config["n_requests"],
        prompt_tokens=config["prompt_tokens"],
        output_tokens=config["output_tokens"],
        charged_context=config["charged_context"],
        arrival_rate=config["arrival_rate_per_s"],
        snapshot_every=config["snapshot_every"],
        kill_fraction=config["kill_fraction"],
        crash_kind=payload["crash"]["kind"], seed=config["seed"],
        out_dir=out_dir)


def _rerun_fleet_chaos(payload, out_dir):
    config = payload["config"]
    fleet_chaos.run_fleet_chaos(
        seed=config["seed"], n_steady=config["n_steady"],
        n_burst=config["n_burst"], output_tokens=config["output_tokens"],
        n_workers=config["n_workers"],
        blocks_per_worker=config["blocks_per_worker"],
        snapshot_every=config["snapshot_every"],
        overload_requests=payload["brownout"]["n_requests"],
        overload_rate_per_s=payload["brownout"]["rate_per_s"],
        out_dir=out_dir)


#: the serving benchmarks, each rerun at its committed config.
RERUN = {"serve": _rerun_serve, "chaos": _rerun_chaos,
         "fleet": _rerun_fleet, "recovery": _rerun_recovery,
         "fleet_chaos": _rerun_fleet_chaos}


def _leaves(value, path=()):
    """(dotted key path without list indices, index path) -> leaf."""
    if isinstance(value, dict):
        for key, item in value.items():
            yield from _leaves(item, path + (key,))
    elif isinstance(value, list):
        for i, item in enumerate(value):
            yield from _leaves(item, path + (i,))
    else:
        yield path, value


def _is_wall_clock(path, wall_clock):
    keys = ".".join(str(p) for p in path if isinstance(p, str))
    return any(keys == name or keys.endswith("." + name)
               for name in wall_clock)


@pytest.mark.parametrize("bench_tag", sorted(RERUN))
def test_committed_artifact_reproduces(bench_tag, tmp_path):
    """Every deterministic leaf of a serving artifact is what a fresh run
    at its committed config computes: ints, bools and strings exactly,
    floats to 1e-9 relative; only the spec's wall-clock leaves differ."""
    spec = REGISTRY[bench_tag]
    committed = _committed(bench_tag)
    RERUN[bench_tag](committed, tmp_path)
    fresh = json.loads((tmp_path / spec.result_name).read_text())

    def deterministic(payload):
        return {path: value for path, value in _leaves(payload)
                if not _is_wall_clock(path, spec.wall_clock)}

    expected, got = deterministic(committed), deterministic(fresh)
    assert sorted(got, key=str) == sorted(expected, key=str)
    for path, value in expected.items():
        if isinstance(value, float):
            assert got[path] == pytest.approx(value, rel=1e-9, abs=0.0), path
        else:
            assert (type(got[path]), got[path]) == (type(value), value), path
