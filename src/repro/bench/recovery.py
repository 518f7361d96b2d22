"""Crash-recovery benchmark CLI (``python -m repro.bench.recovery``).

Measures what durable serving buys on a worker death: a 64k-charged-
context trace is served once uninterrupted (the *recompute* baseline —
what re-serving from scratch up to the crash point costs), then served
again under a :class:`~repro.faults.CrashPlan` that kills the
worker mid-decode, recovered via :func:`repro.durable.recover` (newest
valid snapshot + verified WAL replay), and stepped to completion.  The
payload records the recovery timings (``snapshot_load_s``, ``replay_s``,
``tokens_replayed``), the recovery-vs-recompute speedup, and the bit-
identity verdict comparing every session's final token stream against
the uninterrupted run — the same property ``tests/durable/`` pins.

Both runs are one :mod:`repro.bench.scenario` world (:func:`scenario`):
the baseline is stepped here, for its per-step wall clocks; the crash run
is that scenario made durable under a crash plan, which
:func:`repro.bench.scenario.run` kills, recovers and continues.

Results are written as ``BENCH_recovery.json`` (default: ``results/``),
schema v2, with ``claims``: ``outputs_bit_identical`` (over at least one
session), ``charged_context_at_least_64k``, ``kill_within_run``
(1 <= kill step <= the uninterrupted run's steps) and
``beats_recompute`` (positive recovery time, speedup over recompute
> 1).  ``beats_recompute`` is computed from wall clocks, so it is one of
:data:`WALL_CLOCK`'s leaves.
"""

from __future__ import annotations

import argparse
import dataclasses
import pathlib
import time
from typing import List, Optional

from repro.bench.scenario import (CHARGED_MODEL, TINY_MODEL, Faults,
                                  Scenario, Tenant, Topology, Trace,
                                  build_engine, run, served_outputs)
from repro.bench.tables import Table, run_cli, write_payload
from repro.faults import CrashPlan
from repro.serve.scheduler import SloPolicy

SCHEMA_VERSION = 2
RESULT_NAME = "BENCH_recovery.json"
WALL_CLOCK = ("recovery.snapshot_load_s", "recovery.replay_s",
              "recovery.recovery_s", "recovery.speedup_vs_recompute",
              "uninterrupted.total_serve_s",
              "uninterrupted.recompute_to_kill_s",
              "claims.beats_recompute")


def scenario(n_requests: int, prompt_tokens: int, output_tokens: int,
             charged_context: int, arrival_rate: float,
             seed: int) -> Scenario:
    """The uninterrupted world: a Poisson trace on one prefix-cached
    LongSight engine."""
    return Scenario(
        Trace((Tenant(n_requests, prompt_tokens, output_tokens, seed=seed,
                      rate=arrival_rate, charged=charged_context),)),
        Topology(policy=SloPolicy(max_decode_batch=max(4, n_requests)),
                 n_blocks=16 * n_requests, prefix_caching=True),
        model_seed=seed)


def run_recovery(n_requests: int = 4, prompt_tokens: int = 24,
                 output_tokens: int = 16, charged_context: int = 65_536,
                 arrival_rate: float = 50.0, snapshot_every: int = 8,
                 kill_fraction: float = 0.7,
                 crash_kind: str = "kill_after_fsync", seed: int = 0,
                 out_dir: Optional[pathlib.Path] = None) -> Table:
    """Run the crash-recovery benchmark; returns the table, writes JSON."""
    uninterrupted = scenario(n_requests, prompt_tokens, output_tokens,
                             charged_context, arrival_rate, seed)

    # -- uninterrupted baseline: plain engine, per-step wall clocks ----------
    run_ = build_engine(uninterrupted).start(uninterrupted.trace.requests())
    cumulative: List[float] = []
    t0 = time.perf_counter()
    while run_.step():
        cumulative.append(time.perf_counter() - t0)
    total_serve_s = time.perf_counter() - t0
    total_steps = len(cumulative)
    ref_outputs = served_outputs(run_)
    ref_tokens = run_.tokens_generated

    # -- the same world, durable, killed, recovered, continued ---------------
    kill_step = max(1, min(total_steps, int(total_steps * kill_fraction)))
    recompute_to_kill_s = cumulative[kill_step - 1]
    crashing = dataclasses.replace(
        uninterrupted,
        topology=dataclasses.replace(uninterrupted.topology,
                                     snapshot_every=snapshot_every),
        faults=Faults(crashes={0: CrashPlan(kill_at_step=kill_step,
                                             kind=crash_kind)}))
    outcome = run(crashing)
    if not outcome.deaths:
        raise RuntimeError("crash plan never fired (kill_step beyond the "
                           "end of the run)")
    crash_info = {"kill_step": kill_step, "kind": crash_kind,
                  "died_at_step": outcome.deaths[0]}
    stats = outcome.recoveries[0]
    out = outcome.outputs

    identical = out == ref_outputs
    recovery_s = stats.snapshot_load_s + stats.replay_s
    speedup = recompute_to_kill_s / recovery_s if recovery_s > 0 \
        else float("inf")

    payload = {
        "benchmark": "recovery",
        "schema_version": SCHEMA_VERSION,
        "units": {
            "snapshot_load_s": "newest-valid-snapshot load + restore, "
                               "wall seconds",
            "replay_s": "verified WAL-suffix re-execution, wall seconds",
            "recovery_s": "snapshot_load_s + replay_s",
            "recompute_to_kill_s": "wall seconds to re-serve the trace "
                                   "from scratch up to the crash step",
            "speedup_vs_recompute": "recompute_to_kill_s / recovery_s",
            "tokens_replayed": "decode tokens re-executed and verified "
                               "against logged WAL records",
        },
        "config": {"n_requests": n_requests,
                   "prompt_tokens": prompt_tokens,
                   "output_tokens": output_tokens,
                   "charged_context": charged_context,
                   "arrival_rate_per_s": arrival_rate,
                   "snapshot_every": snapshot_every,
                   "kill_fraction": kill_fraction,
                   "seed": seed,
                   "functional_model": TINY_MODEL.name,
                   "charged_model": CHARGED_MODEL.name},
        "uninterrupted": {"steps": total_steps,
                          "tokens_generated": ref_tokens,
                          "total_serve_s": total_serve_s,
                          "recompute_to_kill_s": recompute_to_kill_s},
        "crash": crash_info,
        "recovery": {"snapshot_load_s": stats.snapshot_load_s,
                     "replay_s": stats.replay_s,
                     "recovery_s": recovery_s,
                     "steps_replayed": stats.steps_replayed,
                     "tokens_replayed": stats.tokens_replayed,
                     "snapshot_step": stats.snapshot_step,
                     "snapshots_skipped": stats.snapshots_skipped,
                     "stale_wal": stats.stale_wal,
                     "speedup_vs_recompute": speedup},
        "identity": {"outputs_bit_identical": identical,
                     "sessions": len(ref_outputs),
                     "tokens_compared": sum(len(v)
                                            for v in ref_outputs.values())},
        "claims": {
            "outputs_bit_identical": identical and len(ref_outputs) >= 1,
            "charged_context_at_least_64k": charged_context >= 65_536,
            "kill_within_run": 1 <= kill_step <= total_steps,
            "beats_recompute": (min(stats.snapshot_load_s,
                                    stats.replay_s) >= 0
                                and recovery_s > 0 and speedup > 1.0),
        },
    }
    write_payload(payload, RESULT_NAME, out_dir)

    table = Table(
        "crash recovery vs recompute (64k-charged-context trace)",
        ["kill_step", "steps", "snapshot_load_ms", "replay_ms",
         "recompute_ms", "speedup", "tokens_replayed", "identical"],
        note=f"{n_requests} sessions, snapshot every {snapshot_every} "
             f"steps, crash kind {crash_kind}")
    table.add_row(kill_step=kill_step, steps=total_steps,
                  snapshot_load_ms=stats.snapshot_load_s * 1e3,
                  replay_ms=stats.replay_s * 1e3,
                  recompute_ms=recompute_to_kill_s * 1e3,
                  speedup=speedup,
                  tokens_replayed=stats.tokens_replayed,
                  identical=identical)
    return table


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.bench.recovery",
        description="Durable-serving crash recovery: snapshot load + WAL "
                    "replay vs full recompute, with bit-identity check.")
    parser.add_argument("--n-requests", type=int, default=4)
    parser.add_argument("--prompt-tokens", type=int, default=24,
                        help="functional (tiny-model) prompt length")
    parser.add_argument("--output-tokens", type=int, default=16)
    parser.add_argument("--charged-context", type=int, default=65_536,
                        help="prompt tokens charged to the analytic "
                             "latency model (>= 65536 for acceptance)")
    parser.add_argument("--arrival-rate", type=float, default=50.0)
    parser.add_argument("--snapshot-every", type=int, default=8)
    parser.add_argument("--kill-fraction", type=float, default=0.7,
                        help="crash after this fraction of the "
                             "uninterrupted run's steps")
    parser.add_argument("--crash-kind", default="kill_after_fsync",
                        choices=("kill_after_fsync", "kill_before_fsync",
                                 "torn_snapshot", "stale_wal"))
    parser.add_argument("--seed", type=int, default=0)
    return run_cli(parser, argv, run_recovery, RESULT_NAME)


if __name__ == "__main__":
    raise SystemExit(main())
