"""Registry of benchmark CLIs that must ship a committed artifact.

Every benchmark that writes a ``results/BENCH_*.json`` file registers
here, pairing the CLI module with the artifact name, the payload
``benchmark`` tag, the expected ``schema_version``, the module's
``validate_payload`` checker, and the payload leaves that are wall-clock
measurements (everything else reruns to the same value).
``check_artifact`` / ``check_all`` load the committed JSON and re-run the
schema validation, so a bench whose artifact was never regenerated after
a schema bump -- or never committed at all -- fails
``tests/bench/test_artifacts.py`` instead of silently shipping stale
numbers; that suite also reruns the serving benchmarks at their
committed configs and compares every deterministic leaf.

Registering a new benchmark is one :class:`BenchSpec` line; the artifact
test picks it up automatically.

Kept unreached: ``*`` — CI-only (bench-smoke's artifact validation step).
"""

from __future__ import annotations

import importlib
import json
import pathlib
from dataclasses import dataclass
from typing import Callable, Dict, List, Tuple

from repro.bench.tables import results_dir


@dataclass(frozen=True)
class BenchSpec:
    """One registered benchmark CLI and its committed artifact."""

    #: import path of the CLI module (``python -m <module>`` regenerates it)
    module: str
    #: artifact filename under ``results/``
    result_name: str
    #: value of the payload's ``benchmark`` field
    benchmark: str
    #: wall-clock leaves: dotted key paths (list indices dropped), or a
    #: trailing part of one, whose values differ from run to run
    wall_clock: Tuple[str, ...] = ()

    def load(self) -> Tuple[int, Callable[[dict], List[str]]]:
        """Import the module and return (schema_version, validate_payload)."""
        mod = importlib.import_module(self.module)
        return mod.SCHEMA_VERSION, mod.validate_payload


#: benchmark tag -> spec; the single source of truth for artifact checks.
REGISTRY: Dict[str, BenchSpec] = {
    spec.benchmark: spec
    for spec in (
        BenchSpec("repro.bench.micro", "BENCH_attention.json",
                  "attention_micro"),
        BenchSpec("repro.bench.chaos", "BENCH_chaos.json", "chaos"),
        BenchSpec("repro.bench.serve", "BENCH_serve.json", "serve"),
        BenchSpec("repro.bench.fleet", "BENCH_fleet.json", "fleet"),
        BenchSpec("repro.bench.obs_overhead", "BENCH_obs.json",
                  "obs_overhead"),
        BenchSpec("repro.bench.recovery", "BENCH_recovery.json",
                  "recovery", wall_clock=(
                      "recovery.snapshot_load_s", "recovery.replay_s",
                      "recovery.recovery_s",
                      "recovery.speedup_vs_recompute",
                      "uninterrupted.total_serve_s",
                      "uninterrupted.recompute_to_kill_s")),
        BenchSpec("repro.bench.fleet_chaos", "BENCH_fleet_chaos.json",
                  "fleet_chaos", wall_clock=("failover_latency_s",
                                             "failover_latency_max_s")),
    )
}


def check_artifact(spec: BenchSpec,
                   directory: pathlib.Path | None = None) -> List[str]:
    """Problems with one committed artifact ([] when it is healthy)."""
    directory = directory if directory is not None else results_dir()
    path = directory / spec.result_name
    if not path.exists():
        return [f"{spec.result_name}: missing -- regenerate with "
                f"`python -m {spec.module}`"]
    try:
        payload = json.loads(path.read_text())
    except ValueError as exc:
        return [f"{spec.result_name}: unparseable JSON ({exc})"]
    schema_version, validate = spec.load()
    problems = [f"{spec.result_name}: {p}" for p in validate(payload)]
    if payload.get("benchmark") != spec.benchmark:
        problems.append(f"{spec.result_name}: benchmark tag "
                        f"{payload.get('benchmark')!r} != {spec.benchmark!r}")
    if payload.get("schema_version") != schema_version:
        problems.append(
            f"{spec.result_name}: schema_version "
            f"{payload.get('schema_version')!r} != {schema_version} -- "
            f"stale artifact, regenerate with `python -m {spec.module}`")
    return problems


def check_all(directory: pathlib.Path | None = None) -> List[str]:
    """Problems across every registered benchmark artifact."""
    problems: List[str] = []
    for spec in REGISTRY.values():
        problems.extend(check_artifact(spec, directory))
    return problems
