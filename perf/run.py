"""The wall-clock serving ledger: command-line entry point.

Driver form (what ``BENCHMARK.json`` names)::

    python3 perf/run.py --workload W --seed S --seconds N --trace 0|1

runs one workload in fresh child interpreters and prints, as the last
line of stdout, ``{"correct", "attempted", "failed", "metrics"}`` with
every end-to-end metric (``--trace 0``) or every per-layer metric
(``--trace 1``).  It exits non-zero when an output check fails.

Suite form (for people)::

    python3 perf/run.py [--seed S] [--seconds N] [--smoke] [--selfcheck]

runs every workload untraced and traced, prints every metric by name and
unit, writes ``perf/out/suite-seed<S>.json`` and appends one row to
``perf/history/ledger.jsonl``.  ``--selfcheck`` runs the suite twice and
compares the two with ``compare.py``; ``--smoke`` runs every workload at
about a tenth of its size (no ledger row).

This process only orchestrates: it never imports numpy or ``repro``, so
each workload is measured alone in its own interpreter, one at a time.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import subprocess
import sys
import time

PERF = pathlib.Path(__file__).resolve().parent
sys.path.insert(0, str(PERF))

import compare                                              # noqa: E402
import stats                                                # noqa: E402

OUT = PERF / "out"
LEDGER = PERF / "history" / "ledger.jsonl"
#: Set-up is timed in this many fresh interpreters per run (median).
SETUP_SAMPLES = 3
CHILD_TIMEOUT_S = 170
#: Environment of every measuring child.  One BLAS thread: on this
#: model's small GEMMs a second thread buys nothing and its spin-waits
#: add pass-to-pass noise.  Fixed glibc malloc thresholds (32 MiB is the
#: largest mmap threshold glibc documents): with the adaptive defaults
#: the first pass of every process takes 700k page faults and runs ~10%
#: slower than the next, until the thresholds settle where a long-lived
#: server's already are.
CHILD_ENV = {
    "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "MALLOC_MMAP_THRESHOLD_": str(32 << 20),
    "MALLOC_TRIM_THRESHOLD_": str(1 << 32),
}


def load_contract() -> dict:
    return json.loads((PERF.parent / "BENCHMARK.json").read_text())


def run_child(mode: str, workload: str, seed: int, seconds: float,
              size: str, corrupt: bool = False) -> dict:
    """Run ``child.py`` to completion; its last stdout line is the result."""
    cmd = [sys.executable, str(PERF / "child.py"), "--mode", mode,
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--size", size]
    if corrupt:
        cmd.append("--corrupt")
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                          timeout=CHILD_TIMEOUT_S,
                          env={**os.environ, **CHILD_ENV})
    lines = proc.stdout.strip().splitlines()
    if not lines:
        sys.exit(f"perf: {workload} child ({mode}) exited "
                 f"{proc.returncode} without a result")
    return json.loads(lines[-1])


def measure_workload(workload: str, seed: int, seconds: float, size: str,
                     corrupt: bool = False) -> dict:
    """End-to-end metrics of one workload: ``{metric: summary}`` + checks."""
    setups = [run_child("setup", workload, seed, seconds, size)["setup_s"]
              for _ in range(SETUP_SAMPLES - 1)]
    result = run_child("measure", workload, seed, seconds, size, corrupt)
    setups.append(result["setup_s"])
    result["metrics"]["setup_s"] = stats.summary(setups)
    return result


def driver_line(result: dict, spec: list, values: dict) -> str:
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in spec}
    return json.dumps({"correct": bool(result["correct"]),
                       "attempted": int(result["attempted"]),
                       "failed": int(result["failed"]),
                       "metrics": metrics})


def run_driver(args, contract: dict) -> int:
    """One workload, one JSON line, for the benchmark driver."""
    if args.trace:
        spec = contract["per_layer"]
        result = run_child("trace", args.workload, args.seed, args.seconds,
                           args.size)
        values = result["layer"]
    else:
        spec = contract["end_to_end"]
        result = measure_workload(args.workload, args.seed, args.seconds,
                                  args.size, args.corrupt)
        values = {k: v["median"] for k, v in result["metrics"].items()}
    print_workload(args.workload, result, contract)
    print(driver_line(result, spec, values))
    return 0 if result["correct"] else 1


# -- human-readable output -----------------------------------------------------

def print_workload(name: str, result: dict, contract: dict) -> None:
    if "metrics" in result:
        print(f"== {name}: end to end (tracing off, seed {result['seed']}, "
              f"{len(result['passes'])} passes) ==")
        for m in contract["end_to_end"]:
            s = result["metrics"][m["name"]]
            print(f"  {m['name']:22s} {s['median']:12.4f} {m['unit']:6s} "
                  f"min {s['min']:.4f} max {s['max']:.4f} n={s['n']} "
                  f"[bound {m['bound']:.2f}, {m['better']} is better]")
        n = result["passes"][0]["n_ttft"]
        if not stats.supported(n, 90):
            print(f"  note: ttft_p90_s rests on {n} samples, fewer than "
                  f"{stats.MIN_SAMPLES_BEYOND} beyond p90: read it as a "
                  "high order statistic, not a tail estimate")
        for i, row in enumerate(result["passes"]):
            print(f"  pass {i}: wall {row['wall_s']:.3f} s, sent "
                  f"{row['sent']}, succeeded {row['succeeded']}, failed "
                  f"{row['failed']}; {row['n_ttft']} first tokens, "
                  f"{row['n_gaps']} gaps")
    if "layer" in result:
        print(f"== {name}: per layer (traced pass, seed {result['seed']}) ==")
        for m in contract["per_layer"]:
            print(f"  {m['name']:32s} {result['layer'][m['name']]:14.5f} "
                  f"{m['unit']}")
        bases = result["layer"].get("wrap.bases_s")
        if bases:
            print("  wrap.* bases (untraced wall, s): " + ", ".join(
                f"{k} {v:.3f}" for k, v in bases.items()))
    checks = result.get("checks")
    if checks:
        print(f"  checks: deterministic={checks['deterministic']}, failed "
              f"ids {checks['failed_ids']}, verified against solo generate "
              f"{checks['verified_ids']}, counts {checks['counts'][0]}")


# -- suite ---------------------------------------------------------------------

def git_state() -> dict:
    def git(*cmd) -> str:
        return subprocess.run(["git", "-C", str(PERF.parent), *cmd],
                              stdout=subprocess.PIPE,
                              stderr=subprocess.DEVNULL, text=True,
                              check=True).stdout.strip()
    try:
        return {"git_sha": git("rev-parse", "HEAD"),
                "dirty": bool(git("status", "--porcelain"))}
    except (subprocess.CalledProcessError, FileNotFoundError):
        return {"git_sha": None, "dirty": None}


def run_suite(seed: int, seconds: float, size: str, contract: dict) -> dict:
    """Every workload, untraced then traced; returns the suite document."""
    suite = {"seed": seed, "seconds": seconds, "size": size,
             "time": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
             **git_state(), "workloads": {}}
    for workload in [w["name"] for w in contract["workloads"]]:
        result = measure_workload(workload, seed, seconds, size)
        print_workload(workload, result, contract)
        traced = run_child("trace", workload, seed, seconds, size)
        print_workload(workload, traced, contract)
        suite["workloads"][workload] = {
            "correct": result["correct"] and traced["correct"],
            "attempted": result["attempted"], "failed": result["failed"],
            "metrics": result["metrics"], "passes": result["passes"],
            "counts": result["checks"]["counts"][0],
            "digest": result["checks"]["digests"][0],
            "layer": traced["layer"],
        }
        suite["versions"] = traced["versions"]
    return suite


def ledger_row(suite: dict) -> dict:
    first = next(iter(suite["workloads"].values()))
    return {
        "time": suite["time"], "git_sha": suite["git_sha"],
        "dirty": suite["dirty"], "seed": suite["seed"],
        "seconds": suite["seconds"],
        "host": {k: v for k, v in first["layer"].items()
                 if k.startswith("host.")},
        "versions": suite["versions"],
        "end_to_end": {
            name: {metric: [s["median"], s["min"], s["max"]]
                   for metric, s in w["metrics"].items()}
            for name, w in suite["workloads"].items()},
        "failed": {name: w["failed"]
                   for name, w in suite["workloads"].items()},
    }


def suite_once(seed: int, seconds: float, size: str, contract: dict,
               tag: str = ""):
    """Run the suite, write its document (and a ledger row when full
    size); returns ``(path, suite)``."""
    suite = run_suite(seed, seconds, size, contract)
    OUT.mkdir(exist_ok=True)
    path = OUT / f"suite-seed{seed}{'' if size == 'full' else '-small'}" \
        f"{tag}.json"
    path.write_text(json.dumps(suite, indent=1))
    if size == "full":
        LEDGER.parent.mkdir(exist_ok=True)
        with open(LEDGER, "a") as fh:
            fh.write(json.dumps(ledger_row(suite)) + "\n")
    print(f"wrote {path}")
    return path, suite


def main() -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter,
        allow_abbrev=False)
    parser.add_argument("--workload", default=None)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="every workload at about a tenth of its size")
    parser.add_argument("--selfcheck", action="store_true",
                        help="run the suite twice and compare the two")
    parser.add_argument("--corrupt", action="store_true",
                        help="flip one output token before the checks")
    args = parser.parse_args()
    contract = load_contract()
    names = [w["name"] for w in contract["workloads"]]
    if args.workload is not None and args.workload not in names:
        parser.error(f"--workload must be one of {names}")
    args.size = "small" if args.smoke else "full"
    if args.seconds is None:
        args.seconds = 1.0 if args.smoke else float(contract["run_seconds"])
    if args.workload is not None:
        return run_driver(args, contract)
    first, suite = suite_once(args.seed, args.seconds, args.size, contract)
    status = 0 if all(w["correct"] for w in suite["workloads"].values()) \
        else 1
    if args.selfcheck:
        second, _ = suite_once(args.seed, args.seconds, args.size,
                               contract, tag="-again")
        status = max(status, compare.main([str(first), str(second)]))
    return status


if __name__ == "__main__":
    sys.exit(main())
