"""The benchmarks that ship a committed ``results/BENCH_*.json``, and the
one check every such artifact passes.

Each module listed in :data:`ARTIFACTS` declares ``RESULT_NAME`` (the
artifact's file name), ``SCHEMA_VERSION`` and ``WALL_CLOCK`` (the leaves
whose values differ from run to run), and its runner writes the
experiment's verdicts into the payload it computes them beside, as
``claims: {name: bool}``.  :func:`check_artifact` asserts that the
artifact exists and parses, is a JSON object with the module's
``benchmark`` tag and ``schema_version``, and that every claim is true;
``python -m repro.bench check [DIR]`` runs it over every artifact.

What a payload holds is pinned elsewhere, by one shape rule:
``tests/bench/test_artifacts.py`` reruns each serving benchmark at its
committed config and requires the committed key paths, leaf types and
every non-wall-clock value, and the two timing benchmarks at a smoke size
and requires the committed key paths and leaf types.
"""

from __future__ import annotations

import importlib
import json
import pathlib
from typing import List, Optional

from repro.bench.tables import results_dir

#: payload ``benchmark`` tag -> the module whose runner writes it.
ARTIFACTS = {
    "attention_micro": "repro.bench.micro",
    "chaos": "repro.bench.chaos",
    "serve": "repro.bench.serve",
    "fleet": "repro.bench.fleet",
    "obs_overhead": "repro.bench.obs_overhead",
    "recovery": "repro.bench.recovery",
    "fleet_chaos": "repro.bench.fleet_chaos",
}
#: Timings only, with no verdict among them: no ``claims``.
UNCLAIMED = ("attention_micro",)


def check_artifact(tag: str,
                   directory: Optional[pathlib.Path] = None) -> List[str]:
    """Problems with the artifact of benchmark ``tag`` ([] when healthy)."""
    module = importlib.import_module(ARTIFACTS[tag])
    name = module.RESULT_NAME
    path = (directory if directory is not None else results_dir()) / name
    if not path.exists():
        return [f"{name}: missing -- regenerate with "
                f"`python -m {module.__name__}`"]
    try:
        payload = json.loads(path.read_text())
    except ValueError as exc:
        return [f"{name}: unparseable JSON ({exc})"]
    if not isinstance(payload, dict):
        return [f"{name}: not a JSON object"]
    problems = []
    if payload.get("benchmark") != tag:
        problems.append(f"{name}: benchmark tag "
                        f"{payload.get('benchmark')!r} != {tag!r}")
    if payload.get("schema_version") != module.SCHEMA_VERSION:
        problems.append(
            f"{name}: schema_version {payload.get('schema_version')!r} != "
            f"{module.SCHEMA_VERSION} -- stale artifact, regenerate with "
            f"`python -m {module.__name__}`")
    if tag in UNCLAIMED:
        return problems
    claims = payload.get("claims")
    if not isinstance(claims, dict) or not claims:
        return problems + [f"{name}: no claims object"]
    return problems + [f"{name}: claim {claim!r} is {value!r}"
                       for claim, value in claims.items() if value is not True]


def check_all(directory: Optional[pathlib.Path] = None) -> List[str]:
    """Problems across every registered artifact."""
    return [problem for tag in ARTIFACTS
            for problem in check_artifact(tag, directory)]
