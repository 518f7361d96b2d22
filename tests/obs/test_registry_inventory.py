"""The metrics registry holds what the wall-clock ledger reads, no more.

Every counter name a module under ``src/repro`` writes
(``<registry>.counter("name")``) must be one ``perf/child.py`` or
``perf/workloads.py`` reads, and every name those two read must be
written somewhere under ``src/repro``.  The ledger's ``_counter`` reads
an unknown name as 0, so a written name it stopped reading is a second
count of a fact, and a read name nothing writes silently zeroes a
ledger metric (``core.filter_ratio``, ``fleet.dispatched``).
"""

from __future__ import annotations

import ast
import pathlib

import repro
from repro.obs import metrics

SRC = pathlib.Path(repro.__file__).parent
PERF = SRC.parents[1] / "perf"
READERS = ("child.py", "workloads.py")
SEVEN = {"attention.queries", "attention.dense.accesses",
         "attention.sparse.candidates", "attention.sparse.passed",
         "attention.sparse.selected", "serve.steps", "fleet.dispatched"}


def counter_names(path: pathlib.Path) -> list:
    """The name argument of every ``.counter(name)`` call in ``path``, and
    of every ``_counter(registries, name)`` call (the ledger's reader);
    a name that is not a string literal is returned as ``None``."""
    names = []
    for node in ast.walk(ast.parse(path.read_text())):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        if isinstance(func, ast.Attribute) and func.attr == "counter":
            arg = node.args[0]
        elif isinstance(func, ast.Name) and func.id == "_counter":
            arg = node.args[1]
        else:
            continue
        names.append(arg.value if isinstance(arg, ast.Constant)
                     and isinstance(arg.value, str) else None)
    return names


def written() -> dict:
    """Counter name -> the ``src/repro`` modules that write it (the
    registry's own module, which looks names up by variable, aside)."""
    registry = pathlib.Path(metrics.__file__).resolve()
    where: dict = {}
    for path in sorted(SRC.rglob("*.py")):
        if path.resolve() == registry:
            continue
        for name in counter_names(path):
            where.setdefault(name, set()).add(str(path.relative_to(SRC)))
    return where


def read() -> set:
    """Counter names the ledger reads (``_counter``'s own lookup by
    variable aside)."""
    return {name for reader in READERS
            for name in counter_names(PERF / reader)} - {None}


def test_every_written_name_is_literal():
    assert None not in written(), written()[None]


def test_every_written_name_is_read_by_the_ledger():
    assert set(written()) - read() == set()


def test_every_name_the_ledger_reads_is_written():
    assert read() - set(written()) == set()


def test_the_registry_holds_the_seven_ledger_counters():
    assert set(written()) == read() == SEVEN
