"""``src/repro`` is one layered package graph, lowest layer first.

Every ``repro`` import a module makes — at module level or inside a
function — goes to its own layer or a lower one in :data:`LAYERS`;
hints under ``if TYPE_CHECKING:`` are exempt, since they never run.
The leaves import nothing from ``repro`` at all.  The order is declared
here and nowhere else.
"""

import ast
import pathlib
import textwrap

SRC = pathlib.Path(__file__).resolve().parents[1] / "src"

#: The packages (and single-module leaves) under ``repro``, lowest first:
#: the GPU-side model and its KV store, then the sparse algorithm, then
#: DReX behind its CXL link, then the systems built on them.
LAYERS = (
    ("errors", "faults", "obs", "data"),
    ("llm",),
    ("core",),
    ("drex",),
    ("system",),
    ("serve",),
    ("durable",),
    ("fleet",),
    ("bench",),
)
LEAVES = LAYERS[0]
RANK = {name: rank for rank, layer in enumerate(LAYERS) for name in layer}


def _is_type_checking(test: ast.expr) -> bool:
    return (isinstance(test, ast.Name) and test.id == "TYPE_CHECKING") or \
        (isinstance(test, ast.Attribute) and test.attr == "TYPE_CHECKING")


def _statements(node: ast.AST):
    """Every node under ``node``, skipping ``if TYPE_CHECKING:`` bodies."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, ast.If) and _is_type_checking(child.test):
            children = child.orelse
        else:
            children = [child]
        for c in children:
            yield c
            yield from _statements(c)


def repro_imports(module: str, source: str, is_package: bool = False):
    """``(line, imported module)`` for every ``repro`` import in
    ``source``, the source of ``module``; relative imports resolved."""
    package = module if is_package else module.rpartition(".")[0]
    for node in _statements(ast.parse(source)):
        if isinstance(node, ast.Import):
            targets = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            base = node.module or ""
            if node.level:
                parts = package.split(".")
                parts = parts[:len(parts) - node.level + 1]
                base = ".".join(parts + ([base] if base else []))
            # ``from repro import faults`` imports the module it names.
            targets = [f"{base}.{a.name}" for a in node.names] \
                if base == "repro" else [base]
        else:
            continue
        for target in targets:
            if target == "repro" or target.startswith("repro."):
                yield node.lineno, target


def _top(module: str) -> str:
    return module.split(".")[1] if "." in module else ""


def upward_imports(module: str, source: str, is_package: bool = False):
    """``(module, line, target)`` for every import of ``module`` that goes
    to a higher layer than its own, or to a name no layer declares."""
    rank = RANK[_top(module)]
    return [(module, line, target)
            for line, target in repro_imports(module, source, is_package)
            if RANK.get(_top(target), len(LAYERS)) > rank]


def _modules():
    """``(module name, path, is_package)`` for every module under repro."""
    for path in sorted((SRC / "repro").rglob("*.py")):
        parts = path.relative_to(SRC).with_suffix("").parts
        is_package = parts[-1] == "__init__"
        if is_package:
            parts = parts[:-1]
        yield ".".join(parts), path, is_package


def test_every_top_level_name_is_in_exactly_one_layer():
    names = {_top(module) for module, _, _ in _modules()} - {""}
    declared = [name for layer in LAYERS for name in layer]
    assert len(declared) == len(set(declared))
    assert names == set(declared)


def test_every_import_goes_to_its_own_layer_or_a_lower_one():
    found = [edge for module, path, is_package in _modules()
             if module != "repro"
             for edge in upward_imports(module, path.read_text(), is_package)]
    assert found == []


def test_leaves_and_the_root_import_nothing_from_repro():
    found = [(module, line, target)
             for module, path, is_package in _modules()
             if _top(module) in LEAVES + ("",)
             for line, target in repro_imports(module, path.read_text(),
                                               is_package)
             if _top(target) != _top(module) or not _top(module)]
    assert found == []


def test_a_function_level_upward_import_is_reported_by_module_and_line():
    source = textwrap.dedent("""\
        from repro.drex.cxl import LINK


        def charge(contexts):
            from repro.system.engine import LongSightSystem
            return LongSightSystem().decode_step_s(contexts)
        """)
    assert upward_imports("repro.drex.timing", source) == [
        ("repro.drex.timing", 5, "repro.system.engine")]


def test_relative_and_undeclared_imports_resolve():
    source = "from ..serve import engine\nfrom . import cxl\nimport repro.nope\n"
    assert list(repro_imports("repro.drex.timing", source)) == [
        (1, "repro.serve"), (2, "repro.drex"), (3, "repro.nope")]
    assert upward_imports("repro.drex.timing", source) == [
        ("repro.drex.timing", 1, "repro.serve"),
        ("repro.drex.timing", 3, "repro.nope")]


def test_an_upward_hint_under_type_checking_passes():
    source = textwrap.dedent("""\
        import typing
        from typing import TYPE_CHECKING

        if TYPE_CHECKING:
            from repro.core.itq import ItqRotations
        if typing.TYPE_CHECKING:
            from repro.serve.engine import ServeEngine
        else:
            from repro.errors import require_finite
        """)
    assert list(repro_imports("repro.llm.kv_cache", source)) == [
        (9, "repro.errors")]
    assert upward_imports("repro.llm.kv_cache", source) == []
