"""Which functions of a source tree do a set of commands enter?

A stdlib reachability audit (``coverage`` is not a dependency)::

    python tools/reach.py run OUT [--root src/repro] -- CMD [ARG...]
    python tools/reach.py report [--root src/repro] --entry OUT... --tests OUT...
    python tools/reach.py audit OUT

``run`` executes ``CMD`` with a collector in every Python process it starts.
A generated ``sitecustomize`` module, put first on ``PYTHONPATH``, calls
:func:`install`, which hooks ``sys.setprofile`` and ``threading.setprofile``
and records each code object entered whose file lies under ``--root``.  Each
process writes what it saw to its own ``OUT/<pid>-<tag>.json`` at exit and on
SIGTERM.  A child interpreter inherits ``PYTHONPATH``, so ``perf/run.py``'s
measuring children and a test's ``subprocess`` calls are followed too.
Several ``run`` calls may share one ``OUT``; the files accumulate.

``report`` maps the recorded code objects to the top-level functions and
methods that ``ast`` finds under ``--root`` and prints a three-way partition:
reached by an entry point, reached by tests only, never entered.  A function
counts as reached when its own code object is entered; ``co_firstlineno`` of
a decorated function is the line of its first decorator, so that is the line
the ``ast`` side is keyed on.  A tests-only or never-entered function is
marked ``kept`` when its module docstring gives the reason it stays, in a
paragraph that opens with :data:`KEPT` and names it.

``audit OUT`` is the whole audit of this repository in one command: it runs
each argv list of :data:`RECIPE` from the repository root into ``OUT/entry``
(``{out}`` in an argument is ``OUT``), the tier-1 suite into ``OUT/tests``,
and prints the report.  Every step runs with ``PYTHONPATH=src`` and
``REPRO_CACHE_DIR=OUT/cache``, so the examples' cheap checkpoints land in
``OUT``, and every artifact the recipe writes goes under ``OUT`` too.  On a
2-vCPU host it takes about 9 minutes.

Traps:

- pytest-benchmark's ``PauseInstrumentation`` clears ``sys.setprofile``
  around the timed call and restores it after, so under a timed benchmark
  the benchmarked function and everything it calls go unrecorded.  Run
  ``benchmarks/`` with ``--benchmark-disable``: the function is then called
  once, untimed, with the hook in place.
- A process that leaves through ``os._exit`` or is killed by SIGKILL writes
  nothing; one started with ``-I``, ``-S`` or an environment without this
  ``PYTHONPATH`` is not followed.
- Anything else that calls ``sys.setprofile`` (``cProfile``, a profiler
  under test) replaces the hook for the rest of that process.
- "Tests-only" is not "dead": an error path no entry point takes (a
  stalled worker with no live sibling, a WAL that cannot resume) is
  entered by the tests alone.  Read a function's callers before deleting
  it.
- Figures 3, 4 and 10, ``test_ablation_granularity.py`` and
  ``test_dynax_comparison.py`` under ``benchmarks/`` (:data:`TRAINING`)
  train the miniature model at full size when no checkpoint is cached
  (``repro.llm.zoo.cache_dir``), which under the hook runs for well over
  ten minutes: the recipe passes ``--ignore`` for each, so what only they
  enter is reported as tests-only or never entered.
"""

from __future__ import annotations

import argparse
import ast
import atexit
import json
import os
import pathlib
import signal
import subprocess
import sys
import tempfile
import threading
import uuid
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

#: A recorded code object or a function found by ``ast``:
#: ``(absolute file, first line, name)``.
Key = Tuple[str, int, str]

_SITECUSTOMIZE = """\
import importlib.util as _util
_spec = _util.spec_from_file_location("_reach_collector", {tool!r})
_collector = _util.module_from_spec(_spec)
_spec.loader.exec_module(_collector)
_collector.install({out!r}, {root!r})
"""


#: The five ``benchmarks/`` files that train a model; the audit skips them.
TRAINING = ("test_ablation_granularity.py", "test_dynax_comparison.py",
            "test_fig10_accuracy_throughput.py", "test_fig3_filter_ratio.py",
            "test_fig4_pareto.py")

#: Every non-test entry point the audit runs, as argv lists from the
#: repository root (``python`` is the running interpreter, ``{out}`` the
#: audit's ``OUT``): CI's bench-smoke commands and its check of the
#: artifacts they wrote, the examples (the training ones at ``--steps 4``),
#: ``benchmarks/`` without :data:`TRAINING`, the experiment CLI's listing
#: and the perf ledger's smoke run.
RECIPE: Tuple[Tuple[str, ...], ...] = (
    ("python", "-m", "repro.bench.micro", "--contexts", "4096",
     "--repeats", "1", "--head-dim", "32", "--threshold", "20",
     "--out-dir", "{out}/results/micro-head-dim-32"),
    ("python", "-m", "repro.bench.micro", "--contexts", "4096", "65536",
     "--repeats", "1", "--max-reference-context", "4096",
     "--threshold", "44", "--out-dir", "{out}/results"),
    ("python", "-m", "repro.bench.chaos", "--rates", "0.0", "0.01", "0.05",
     "--n-sessions", "2", "--n-tokens", "16", "--out-dir", "{out}/results"),
    ("python", "examples/drex_offload_tour.py", "--keys", "4096"),
    ("python", "-m", "repro.bench.serve", "--n-requests", "3",
     "--prompt-tokens", "16", "--output-tokens", "4",
     "--trace-out", "{out}/results/trace.json", "--out-dir", "{out}/results"),
    ("python", "-m", "repro.bench.fleet", "--workers", "1", "2",
     "--n-steady", "6", "--n-burst", "6", "--out-dir", "{out}/results"),
    ("python", "-m", "repro.bench.obs_overhead", "--steps", "256",
     "--reps", "2", "--out-dir", "{out}/results"),
    ("python", "-m", "repro.bench.recovery", "--n-requests", "3",
     "--output-tokens", "10", "--snapshot-every", "4",
     "--out-dir", "{out}/results"),
    ("python", "-m", "repro.bench.fleet_chaos", "--n-steady", "6",
     "--n-burst", "4", "--out-dir", "{out}/results"),
    ("python", "-m", "repro.bench", "list"),
    ("python", "-m", "repro.bench", "check", "{out}/results"),
    ("python", "-m", "pytest", "-q", "-p", "no:cacheprovider", "benchmarks",
     "--benchmark-disable")
    + tuple(f"--ignore=benchmarks/{name}" for name in TRAINING),
    ("python", "examples/multi_tenant_serving.py", "--sessions", "8"),
    ("python", "examples/serving_capacity.py"),
    ("python", "examples/quickstart.py", "--steps", "4"),
    ("python", "examples/needle_retrieval.py", "--steps", "4"),
    ("python", "examples/tune_thresholds.py", "--steps", "4"),
    ("python", "perf/run.py", "--smoke"),
)

#: The tier-1 suite, run into ``OUT/tests``.
TESTS = ("python", "-m", "pytest", "-q", "-p", "no:cacheprovider")

REPO = pathlib.Path(__file__).resolve().parents[1]


# -- collector (runs inside every followed process) ----------------------------

def install(out: str, root: str) -> None:
    """Record every code object entered in this process from now on and
    write those under ``root`` to a file in ``out`` at exit or SIGTERM."""
    seen = set()
    cwd = os.getcwd()
    path = os.path.join(out, f"{os.getpid()}-{uuid.uuid4().hex[:8]}.json")

    def hook(frame, event, arg):
        if event == "call":
            seen.add(frame.f_code)

    def dump():
        hits, real = [], {}
        for code in list(seen):
            name = code.co_filename
            if name not in real:
                real[name] = os.path.realpath(os.path.join(cwd, name))
            if real[name].startswith(root + os.sep):
                hits.append([real[name], code.co_firstlineno, code.co_name])
        os.makedirs(out, exist_ok=True)
        with open(path, "w") as fh:
            json.dump(hits, fh)

    def on_sigterm(signum, frame):
        dump()
        signal.signal(signum, signal.SIG_DFL)
        os.kill(os.getpid(), signum)

    atexit.register(dump)
    if signal.getsignal(signal.SIGTERM) is signal.SIG_DFL:
        signal.signal(signal.SIGTERM, on_sigterm)
    threading.setprofile(hook)
    sys.setprofile(hook)


def run(out: pathlib.Path, cmd: Sequence[str], root: pathlib.Path,
        cwd: Optional[pathlib.Path] = None) -> int:
    """Run ``cmd`` with the collector in it and in every Python child it
    starts; returns its exit status."""
    out = pathlib.Path(out).resolve()
    out.mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory() as site:
        pathlib.Path(site, "sitecustomize.py").write_text(
            _SITECUSTOMIZE.format(tool=str(pathlib.Path(__file__).resolve()),
                                  out=str(out), root=os.path.realpath(root)))
        python_path = os.environ.get("PYTHONPATH")
        env = {**os.environ, "PYTHONPATH": site + (
            os.pathsep + python_path if python_path else "")}
        return subprocess.run(list(cmd), env=env, cwd=cwd).returncode


# -- report --------------------------------------------------------------------

def functions(root: pathlib.Path) -> Dict[Key, Tuple[str, int]]:
    """Every top-level function and method under ``root``:
    ``{key: (file:qualname, lines)}``.  Functions nested in functions are
    not listed; definitions under module- or class-level ``if`` / ``try``
    are."""
    root = pathlib.Path(root).resolve()
    found: Dict[Key, Tuple[str, int]] = {}

    def visit(body: Iterable[ast.stmt], path: pathlib.Path, prefix: str):
        for node in body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                first = min([node.lineno]
                            + [d.lineno for d in node.decorator_list])
                name = f"{path.relative_to(root.parent)}:{first} " \
                    f"{prefix}{node.name}"
                found[(str(path), first, node.name)] = (
                    name, node.end_lineno - first + 1)
            elif isinstance(node, ast.ClassDef):
                visit(node.body, path, f"{prefix}{node.name}.")
            else:
                for field in ("body", "orelse", "finalbody"):
                    visit(getattr(node, field, ()), path, prefix)
                for handler in getattr(node, "handlers", ()):
                    visit(handler.body, path, prefix)

    for path in sorted(root.rglob("*.py")):
        visit(ast.parse(path.read_text(), str(path)).body, path, "")
    return found


def load_hits(dirs: Iterable[pathlib.Path]) -> set:
    hits = set()
    for directory in dirs:
        for path in pathlib.Path(directory).glob("*.json"):
            hits.update(tuple(hit) for hit in json.loads(path.read_text()))
    return hits


def partition(root: pathlib.Path, entry: Iterable[pathlib.Path],
              tests: Iterable[pathlib.Path]) -> Dict[str, List[str]]:
    """``{"entry", "tests_only", "never"}`` → sorted function names."""
    entry_hits, test_hits = load_hits(entry), load_hits(tests)
    parts = {"entry": [], "tests_only": [], "never": []}
    for key, (name, _) in functions(root).items():
        part = ("entry" if key in entry_hits else
                "tests_only" if key in test_hits else "never")
        parts[part].append(name)
    return {part: sorted(names) for part, names in parts.items()}


#: Opens a module-docstring paragraph that says why functions no entry
#: point enters stay: ``Kept unreached: ``Class.method``, ``name``: why.``
#: ``*`` names every function of the module.
KEPT = "Kept unreached:"


def kept(root: pathlib.Path, name: str) -> bool:
    """Whether the module docstring of ``name`` (a report name) names it
    in a :data:`KEPT` paragraph."""
    path, qualname = name.split(" ", 1)
    source = (pathlib.Path(root).resolve().parent
              / path.rsplit(":", 1)[0]).read_text()
    paragraphs = (ast.get_docstring(ast.parse(source)) or "").split("\n\n")
    reasons = " ".join(p for p in paragraphs if p.lstrip().startswith(KEPT))
    return f"``{qualname}``" in reasons or "``*``" in reasons


def report(root: pathlib.Path, entry: Sequence[pathlib.Path],
           tests: Sequence[pathlib.Path]) -> None:
    """Print the partition's counts, then every tests-only and
    never-entered function, marked ``kept`` when its module says why."""
    lines = {name: n for name, n in functions(root).values()}
    parts = partition(root, entry, tests)
    for part, title in (("entry", "reached by an entry point"),
                        ("tests_only", "reached by tests only"),
                        ("never", "never entered")):
        names = parts[part]
        print(f"{title}: {len(names)} functions, "
              f"{sum(lines[n] for n in names)} lines")
    for part in ("tests_only", "never"):
        print(f"\n## {part}")
        for name in parts[part]:
            mark = "  kept" if kept(root, name) else ""
            print(f"{name}  ({lines[name]} lines){mark}")


def audit(out: pathlib.Path, root: pathlib.Path) -> int:
    """Run :data:`RECIPE` into ``out/entry`` and :data:`TESTS` into
    ``out/tests``, then print the report; returns the first non-zero exit
    status, or 0."""
    out = pathlib.Path(out).resolve()
    src = str(REPO / "src")
    python_path = os.environ.get("PYTHONPATH")
    os.environ.update(REPRO_CACHE_DIR=str(out / "cache"), PYTHONPATH=src + (
        os.pathsep + python_path if python_path else ""))
    status = 0
    for part, cmds in (("entry", RECIPE), ("tests", (TESTS,))):
        for cmd in cmds:
            argv = [sys.executable if arg == "python" else
                    arg.replace("{out}", str(out)) for arg in cmd]
            print("$", " ".join(argv), flush=True)
            code = run(out / part, argv, root, cwd=REPO)
            status = status or code
    report(root, [out / "entry"], [out / "tests"])
    return status


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter,
        allow_abbrev=False)
    sub = parser.add_subparsers(dest="command", required=True)
    run_p = sub.add_parser("run", help="run a command under the collector")
    run_p.add_argument("out", type=pathlib.Path)
    run_p.add_argument("--root", type=pathlib.Path, default="src/repro")
    run_p.add_argument("cmd", nargs=argparse.REMAINDER)
    rep_p = sub.add_parser("report", help="print the three-way partition")
    rep_p.add_argument("--root", type=pathlib.Path, default="src/repro")
    rep_p.add_argument("--entry", type=pathlib.Path, nargs="+", required=True)
    rep_p.add_argument("--tests", type=pathlib.Path, nargs="+", required=True)
    aud_p = sub.add_parser("audit", help="run RECIPE and tier-1, then report")
    aud_p.add_argument("out", type=pathlib.Path)
    aud_p.add_argument("--root", type=pathlib.Path, default="src/repro")
    args = parser.parse_args(argv)
    if args.command == "audit":
        return audit(args.out, args.root)
    if args.command == "run":
        cmd = args.cmd[1:] if args.cmd[:1] == ["--"] else args.cmd
        if not cmd:
            parser.error("run: no command given after --")
        return run(args.out, cmd, args.root)
    report(args.root, args.entry, args.tests)
    return 0


if __name__ == "__main__":
    sys.exit(main())
