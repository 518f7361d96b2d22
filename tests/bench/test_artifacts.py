"""Every registered benchmark must ship a valid committed artifact.

``repro.bench.registry`` lists each ``BENCH_*.json`` a CLI writes; this
suite fails when an artifact is missing from ``results/``, unparseable,
schema-stale, or invalid under the owning module's ``validate_payload``.
That makes "bench exists but its numbers were never committed" a test
failure rather than a silent gap.
"""

import json

import pytest

from repro.bench import chaos
from repro.bench.registry import (REGISTRY, BenchSpec, check_all,
                                  check_artifact)
from repro.bench.serve import TINY_MODEL
from repro.bench.tables import results_dir
from repro.llm.config import LLAMA3_8B
from repro.serve.crossval import default_systems, poisson_workload
from repro.serve.engine import AnalyticTiming
from repro.system.prefill import PrefillModel
from repro.system.serving_sim import ServingSimulator


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


# -- the published analytic numbers are what the code computes ---------------


def _committed(spec_tag):
    return json.loads(
        (results_dir() / REGISTRY[spec_tag].result_name).read_text())


def test_committed_chaos_serving_points_are_reproduced():
    payload = _committed("chaos")
    config = payload["config"]
    assert config["model"] == LLAMA3_8B.name
    for workload in config["workloads"]:
        for name, (system, faultable) in chaos.serving_systems().items():
            fresh = [chaos._serving_point(
                system, LLAMA3_8B, workload, config["n_sessions"], rate,
                config["seed"], faultable)
                for rate in payload["fault_rates"]]
            assert fresh == payload["serving"][workload][name], \
                (workload, name)


def test_committed_serve_analytic_throughput_is_reproduced():
    payload = _committed("serve")
    config = payload["config"]
    assert config["charged_model"] == LLAMA3_8B.name
    systems = default_systems()
    for name, points in payload["sweep"].items():
        for point in points:
            trace = poisson_workload(
                config["n_requests"], point["arrival_rate_per_s"],
                config["prompt_tokens"], config["output_tokens"],
                TINY_MODEL.vocab_size,
                charged_prompt_tokens=point["charged_context"],
                seed=config["seed"])
            timing = AnalyticTiming(systems[name], LLAMA3_8B,
                                    prefill=PrefillModel())
            report = ServingSimulator(timing).run(trace)
            assert report.throughput_tps \
                == point["analytic_throughput_tps"], \
                (name, point["arrival_rate_per_s"], point["charged_context"])
