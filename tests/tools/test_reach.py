"""``tools/reach.py``: the collector follows children and the report
partitions functions into entry-reached, tests-only and never entered."""

from __future__ import annotations

import importlib.util
import pathlib
import signal
import sys
import textwrap

TOOL = pathlib.Path(__file__).resolve().parents[2] / "tools" / "reach.py"
_spec = importlib.util.spec_from_file_location("reach", TOOL)
reach = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(reach)

MODULE = textwrap.dedent('''
    import functools


    def called():
        return 1


    def uncalled():
        return 2


    @functools.lru_cache(maxsize=None)
    def in_child():
        return 3


    class Box:
        @property
        def tests_only(self):
            return 4
''')


def _package(tmp_path: pathlib.Path) -> pathlib.Path:
    pkg = tmp_path / "pkg"
    pkg.mkdir()
    (pkg / "mod.py").write_text(MODULE)
    return pkg


def test_partition_follows_a_child_interpreter(tmp_path):
    pkg = _package(tmp_path)
    entry, tests = tmp_path / "entry", tmp_path / "tests"
    child = "import mod; mod.in_child()"
    parent = ("import subprocess, sys, mod; mod.called(); "
              f"subprocess.run([sys.executable, '-c', {child!r}], check=True)")
    assert reach.run(entry, [sys.executable, "-c", parent], pkg, pkg) == 0
    assert reach.run(tests, [sys.executable, "-c",
                             "import mod; mod.Box().tests_only"], pkg, pkg) == 0
    assert len(list(entry.glob("*.json"))) == 2
    assert reach.partition(pkg, [entry], [tests]) == {
        "entry": ["pkg/mod.py:13 in_child", "pkg/mod.py:5 called"],
        "tests_only": ["pkg/mod.py:19 Box.tests_only"],
        "never": ["pkg/mod.py:9 uncalled"],
    }


def test_sigterm_still_writes_what_was_entered(tmp_path):
    pkg = _package(tmp_path)
    out = tmp_path / "out"
    cmd = ("import os, signal, mod; mod.called(); "
           "os.kill(os.getpid(), signal.SIGTERM)")
    assert reach.run(out, [sys.executable, "-c", cmd], pkg, pkg) \
        == -signal.SIGTERM
    assert reach.partition(pkg, [out], [])["entry"] == ["pkg/mod.py:5 called"]


def test_every_recipe_entry_names_a_file_or_an_importable_module():
    """The audit's recipe is checked without running it: each step's
    script or ``-m`` module exists, as does every path it passes."""
    src = str(reach.REPO / "src")
    sys.path.insert(0, src)
    try:
        for cmd in reach.RECIPE + (reach.TESTS,):
            assert cmd[0] == "python", cmd
            if cmd[1] == "-m":
                assert importlib.util.find_spec(cmd[2]) is not None, cmd
            else:
                assert (reach.REPO / cmd[1]).is_file(), cmd
            for arg in cmd[2:]:
                path = arg.split("=", 1)[-1]
                if "{out}" not in path and (path.endswith(".py")
                                            or "/" in path):
                    assert (reach.REPO / path).exists(), (cmd, arg)
    finally:
        sys.path.remove(src)
    ignored = {arg.split("/")[-1] for cmd in reach.RECIPE for arg in cmd
               if arg.startswith("--ignore=")}
    assert ignored == set(reach.TRAINING)


def test_a_kept_paragraph_marks_the_functions_it_names(tmp_path):
    pkg = tmp_path / "pkg"
    pkg.mkdir()
    (pkg / "mod.py").write_text('"""A module.\n\nKept unreached: '
                                '``Box.tests_only`` (an oracle)."""\n'
                                + MODULE)
    (pkg / "all.py").write_text('"""Kept unreached: ``*``."""\n'
                                'def anything():\n    pass\n')
    assert reach.kept(pkg, "pkg/mod.py:21 Box.tests_only")
    assert not reach.kept(pkg, "pkg/mod.py:11 uncalled")
    assert reach.kept(pkg, "pkg/all.py:2 anything")
