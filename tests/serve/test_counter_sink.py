"""One sink per streamed counter.

Every counter the record stream's registry sink
(:func:`repro.serve.events._counters`) produces is a fact some record
carries, so it is incremented there and nowhere else: no other module
under ``src/repro`` may name one as a string literal.
"""

from __future__ import annotations

import ast
import itertools
import pathlib
from types import SimpleNamespace

import repro
from repro.serve import events
from repro.serve.events import RECORD_KINDS, Record
from repro.serve.scheduler import BROWNOUT_STAGES

SRC = pathlib.Path(repro.__file__).parent
STATES = ("healthy", "suspect", "failed")


def one_of_each() -> list:
    """One record of every kind and of every field variant its sink
    branches on."""
    request = SimpleNamespace(tenant="t")
    records = [Record("token", request, {"degraded": degraded,
                                         "level": level})
               for degraded in (0, 1)
               for level in range(len(BROWNOUT_STAGES) - 1)]
    records += [Record("step", None, {"batch": batch})
                for batch in (None, 1)]
    records += [Record("reject", request, {"cause": cause}) for cause
                in ("queue_timeout", "impossible_fit", "brownout")]
    records += [Record("migrate", request, {"reason": reason})
                for reason in ("capacity", "failover")]
    records += [Record("failover", None, {"worker": 0, "recovered": r})
                for r in (True, False)]
    records += [Record("health", None, {"before": before, "state": state,
                                        "observed_s": observed,
                                        "deadline_s": 1.0})
                for before, state in itertools.product(STATES, STATES)
                for observed in (0.5, 2.0)]
    records += [Record("restore", None, {"worker": 0})]
    covered = {r.kind for r in records}
    records += [Record(kind, request, {}) for kind in RECORD_KINDS
                if kind not in covered]
    return records


def sink_names() -> set:
    return {name for record in one_of_each()
            for name in events._counters(record)}


def string_literals(path: pathlib.Path) -> set:
    return {node.value for node in ast.walk(ast.parse(path.read_text()))
            if isinstance(node, ast.Constant) and isinstance(node.value, str)}


def test_every_record_kind_is_sunk():
    assert {r.kind for r in one_of_each()} == set(RECORD_KINDS)


def test_the_sink_produces_the_fleet_and_serve_counters():
    names = sink_names()
    assert {"serve.steps", "serve.tokens", "fleet.migrations",
            "fleet.failovers", "fleet.failover_recovered",
            "fleet.failover_recomputed", "fleet.worker_suspect",
            "fleet.step_deadline_miss"} <= names


def test_no_other_module_names_a_streamed_counter():
    names = sink_names()
    sink = pathlib.Path(events.__file__).resolve()
    offenders = {
        (str(path.relative_to(SRC)), name)
        for path in sorted(SRC.rglob("*.py")) if path.resolve() != sink
        for name in string_literals(path) & names}
    assert offenders == set()
