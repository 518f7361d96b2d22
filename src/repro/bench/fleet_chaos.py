"""Fleet chaos benchmark CLI (``python -m repro.bench.fleet_chaos``).

Two resilience experiments over the functional fleet:

1. **Gray-failure sweep** — a four-worker *durable* fleet serves the
   seeded two-tenant trace of ``repro.bench.fleet`` while worker 0
   misbehaves per :data:`repro.faults.GRAY_KINDS`:

   - ``slow_worker`` / ``stuck_worker``: the health monitor suspects,
     then fails the worker; its sessions fail over (newest durable
     snapshot + WAL suffix into a fresh engine, live sessions shipped to
     healthy siblings) and the fleet finishes every request
     **bit-identical** to the fault-free reference run.
   - ``flapping_worker`` (period 1): the worker oscillates around the
     deadline, is repeatedly suspected and drained, self-heals each
     time, and the run completes without any failover.

   Stalls are simulated (the router's guarded step reads the plan), so
   the sweep is fast and reproducible while driving the real detection,
   fencing, and recovery paths; failover latency is real wall time of
   the recover-and-drain sequence.

2. **Overload brownout A/B** — one engine at well over sustainable load,
   with and without the :class:`~repro.serve.scheduler.BrownoutPolicy`
   ladder, same queue timeout.  Staged degradation (shrink top-k, raise
   the SCF threshold, dense-window pin) plus admission pacing must shed
   a smaller fraction of requests than the no-ladder baseline, and every
   browned-out token must be attributed to a ladder stage.

Both are lists of :mod:`repro.bench.scenario` scenarios: the fleet
benchmark's :func:`~repro.bench.fleet.trace` on a durable
:func:`~repro.bench.fleet.fleet_topology`, fault-free and then under each
gray plan; :func:`overload_scenario` without and with the ladder.

Results are written as ``BENCH_fleet_chaos.json`` (default:
``results/``), schema v2, with ``claims``.  Over the gray sweep:
``reference_fault_free`` (no failover without a fault),
``gray_bit_identical``, ``gray_available`` (availability >= 0.99),
``every_request_accounted``, ``slow_and_stuck_fail_over``,
``failover_latency_measured`` (a wall clock, so one of
:data:`WALL_CLOCK`'s leaves) and ``flapping_repeatedly_suspected``.
Over the brownout A/B: ``baseline_overloaded`` (the baseline sheds),
``ladder_sheds_less``, ``ladder_browns_out``,
``baseline_never_browns_out`` and ``brownout_tokens_attributed``.
"""

from __future__ import annotations

import argparse
import math
import pathlib
from typing import List, Optional

import numpy as np

from repro.bench.fleet import fleet_topology, trace
from repro.bench.scenario import (CHARGED_MODEL, TINY_MODEL, Faults,
                                  Scenario, Tenant, Topology, Trace, run)
from repro.bench.tables import Table, run_cli, write_payload
from repro.faults import GRAY_KINDS, GrayFailurePlan
from repro.fleet import HealthPolicy
from repro.serve.scheduler import BROWNOUT_STAGES, BrownoutPolicy, SloPolicy

SCHEMA_VERSION = 2
RESULT_NAME = "BENCH_fleet_chaos.json"
WALL_CLOCK = ("failover_latency_s", "failover_latency_max_s",
              "claims.failover_latency_measured")

#: fixed step deadline for the sweep: simulated stalls (2 s) always miss
#: it, real tiny-model steps (milliseconds) never do — the verdicts are
#: deterministic regardless of host jitter.  The phi score stays off
#: (infinite thresholds): it judges a step against the worker's own
#: millisecond baseline, so host jitter alone could suspect a worker.
STEP_DEADLINE_S = 1.0
STALL_S = 2.0


def gray_plan(kind: str, seed: int) -> GrayFailurePlan:
    """Seeded gray-failure plan for ``kind`` (start step varies with the
    seed; flapping uses period 1 so misses never run consecutive and the
    worker self-heals instead of failing over)."""
    rng = np.random.default_rng(seed ^ 0x5EED)
    start = int(rng.integers(2, 6))
    period = 1 if kind == "flapping_worker" else 4
    return GrayFailurePlan(kind=kind, start_step=start, stall_s=STALL_S,
                           period=period)


def run_gray_sweep(seed: int, n_steady: int = 10, n_burst: int = 6,
                   output_tokens: int = 8, n_workers: int = 4,
                   blocks_per_worker: int = 64,
                   snapshot_every: int = 4,
                   ttft_slo_s: float = 5.0) -> dict:
    """Fault-free reference plus one run per gray kind, all compared."""
    topology = fleet_topology(
        n_workers, blocks_per_worker, max_decode_batch=4,
        snapshot_every=snapshot_every,
        health=HealthPolicy(step_deadline_s=STEP_DEADLINE_S,
                            suspect_phi=math.inf, fail_phi=math.inf))

    def point(plan: Optional[GrayFailurePlan]) -> dict:
        outcome = run(Scenario(
            trace(n_steady, n_burst, seed, output_tokens), topology,
            Faults(gray={} if plan is None else {0: plan}),
            model_seed=seed))
        report = outcome.report
        events = report.events
        attained = [e for e in events if e.ttft_s is not None
                    and e.ttft_s <= ttft_slo_s]
        return {
            "outputs": outcome.outputs,
            "summary": {
                "completed": report.completed,
                "shed": report.shed,
                "rejected": report.rejected,
                "availability": report.availability,
                "slo_attainment": (len(attained) / len(events)
                                   if events else 1.0),
                "failovers": report.failovers,
                "failover_sessions": report.failover_sessions,
                "failover_latency_s": list(report.failover_latency_s),
                "failover_latency_max_s": report.failover_latency_max_s,
                "worker_suspects": report.worker_suspects,
                "migrations": report.migrations,
                "makespan_s": report.makespan_s,
            },
        }

    reference = point(None)
    kinds = []
    for kind in GRAY_KINDS:
        plan = gray_plan(kind, seed)
        result = point(plan)
        result["summary"].update({
            "kind": kind,
            "plan": {"start_step": plan.start_step,
                     "stall_s": plan.stall_s, "period": plan.period},
            "bit_identical": result["outputs"] == reference["outputs"],
        })
        kinds.append(result["summary"])
    return {
        "n_requests": n_steady + n_burst,
        "n_workers": n_workers,
        "gray_worker": 0,
        "step_deadline_s": STEP_DEADLINE_S,
        "ttft_slo_s": ttft_slo_s,
        "reference": reference["summary"],
        "kinds": kinds,
    }


def _claims(gray: dict, brownout: dict) -> dict:
    """The two experiments' verdicts, from their results."""
    kinds = {point["kind"]: point for point in gray["kinds"]}
    failing = [kinds["slow_worker"], kinds["stuck_worker"]]
    baseline, ladder = brownout["baseline"], brownout["ladder"]
    return {
        "reference_fault_free": gray["reference"]["failovers"] == 0,
        "gray_bit_identical": all(p["bit_identical"]
                                  for p in kinds.values()),
        "gray_available": all(p["availability"] >= 0.99
                              for p in kinds.values()),
        "every_request_accounted": all(
            p["completed"] + p["shed"] + p["rejected"] == gray["n_requests"]
            for p in kinds.values()),
        "slow_and_stuck_fail_over": all(p["failovers"] >= 1
                                        for p in failing),
        "failover_latency_measured": all(p["failover_latency_max_s"] > 0
                                         for p in failing),
        "flapping_repeatedly_suspected":
            kinds["flapping_worker"]["worker_suspects"] >= 2,
        "baseline_overloaded": baseline["shed_fraction"] > 0,
        "ladder_sheds_less":
            ladder["shed_fraction"] < baseline["shed_fraction"],
        "ladder_browns_out": ladder["brownout_tokens"] >= 1,
        "baseline_never_browns_out": baseline["brownout_tokens"] == 0,
        "brownout_tokens_attributed":
            brownout["attributed_tokens_consistent"],
    }


# -- overload brownout A/B ----------------------------------------------------

def overload_scenario(n_requests: int, rate_per_s: float, seed: int,
                      brownout: Optional[BrownoutPolicy],
                      n_blocks: int, queue_timeout_s: float) -> Scenario:
    """One engine driven well past its sustainable rate: a Poisson
    single-tenant trace of 96-token outputs at a charged 32k context."""
    return Scenario(
        Trace((Tenant(n_requests, 24, 96, seed=seed + 7, rate=rate_per_s,
                      extra=8, charged=32_768),)),
        Topology(policy=SloPolicy(max_decode_batch=4,
                                  queue_timeout_s=queue_timeout_s),
                 n_blocks=n_blocks),
        Faults(brownout=brownout), model_seed=seed)


def _overload_point(scenario: Scenario) -> dict:
    outcome = run(scenario)
    report = outcome.report
    n = len(report.events)
    shed = sum(1 for e in report.events if e.shed or e.rejected)
    stage_tokens = report.brownout_stage_tokens
    return {
        "requests": n,
        "completed": len(report.completed),
        "shed": shed,
        "shed_fraction": shed / n if n else 0.0,
        "tokens_generated": report.tokens_generated,
        "brownout_tokens": report.brownout_tokens,
        "brownout_token_fraction": report.brownout_token_fraction,
        "brownout_stage_tokens": {str(s): c
                                  for s, c in stage_tokens.items()},
        "brownout_transitions": sum(r.kind == "brownout"
                                    for r in outcome.records),
        "makespan_s": report.clock_s,
        "ttft_p99_s": report.ttft_percentile_s(99.0),
    }


def run_overload_ab(seed: int, n_requests: int = 40, rate_per_s: float = 8.0,
                    n_blocks: int = 48, queue_timeout_s: float = 1.0,
                    ttft_budget_s: float = 1.0) -> dict:
    """Same overload trace with and without the brownout ladder.

    Calibration: in the analytic clock prefill charges *overlap* (they
    delay a session's readiness, not the engine step), so a single
    engine is decode- and pool-bound.  The trace makes decode dominate
    service: 96 output tokens at a charged 32k context cost ~7.5 ms per
    normal decode step but only ~4.7 ms on the degraded sliding-window
    path (1.57x), so when the ladder reaches stage 3 (dense-window pin)
    the running batch genuinely drains faster.  The Poisson rate then
    drives ~2x the no-ladder service rate: the baseline's queue heads
    outwait the 1 s queue timeout and shed, while the ladder's extra
    drain keeps more heads inside the same timeout — fewer sheds from
    the identical trace.  Stage 4 (queue-depth triggered only; the
    sentinel last budget fraction keeps the wait signal out of it)
    additionally sheds the youngest excess beyond ``shed_to_depth``
    before those requests can time out at the head.
    """
    ladder_policy = BrownoutPolicy(
        queue_high=(1, 2, 3, 12), ttft_budget_s=ttft_budget_s,
        budget_fractions=(0.1, 0.2, 0.3, 99.0), admit_per_step=4,
        shed_to_depth=10)
    baseline, ladder = (
        _overload_point(overload_scenario(n_requests, rate_per_s, seed,
                                          brownout, n_blocks,
                                          queue_timeout_s))
        for brownout in (None, ladder_policy))
    attributed = sum(int(c) for c in
                     ladder["brownout_stage_tokens"].values())
    return {
        "n_requests": n_requests,
        "rate_per_s": rate_per_s,
        "queue_timeout_s": queue_timeout_s,
        "ttft_budget_s": ttft_budget_s,
        "stages": list(BROWNOUT_STAGES),
        "baseline": baseline,
        "ladder": ladder,
        "shed_reduction": (baseline["shed_fraction"]
                           - ladder["shed_fraction"]),
        "attributed_tokens_consistent":
            attributed == ladder["brownout_tokens"],
    }


def run_fleet_chaos(seed: int = 0, n_steady: int = 10, n_burst: int = 6,
                    output_tokens: int = 8, n_workers: int = 4,
                    blocks_per_worker: int = 64, snapshot_every: int = 4,
                    overload_requests: int = 40,
                    overload_rate_per_s: float = 8.0,
                    out_dir: Optional[pathlib.Path] = None) -> Table:
    """Run both experiments; returns the table and writes the JSON."""
    gray = run_gray_sweep(seed, n_steady=n_steady,
                          n_burst=n_burst, output_tokens=output_tokens,
                          n_workers=n_workers,
                          blocks_per_worker=blocks_per_worker,
                          snapshot_every=snapshot_every)
    brownout = run_overload_ab(seed, n_requests=overload_requests,
                               rate_per_s=overload_rate_per_s)

    payload = {
        "benchmark": "fleet_chaos",
        "schema_version": SCHEMA_VERSION,
        "units": {
            "availability": "fraction of arrived requests completed "
                            "with (eventually) full service",
            "slo_attainment": "fraction of requests with TTFT within "
                              "the configured budget",
            "failover_latency_s": "wall seconds to fence, recover, and "
                                  "drain a failed worker",
            "shed_fraction": "shed or rejected requests / arrivals",
            "brownout_stage_tokens": "decode tokens attributed to each "
                                     "active ladder stage",
        },
        "config": {
            "seed": seed,
            "n_steady": n_steady, "n_burst": n_burst,
            "output_tokens": output_tokens,
            "n_workers": n_workers,
            "blocks_per_worker": blocks_per_worker,
            "snapshot_every": snapshot_every,
            "functional_model": TINY_MODEL.name,
            "charged_model": CHARGED_MODEL.name,
            "system": "longsight",
            "gray_kinds": list(GRAY_KINDS),
        },
        "gray": gray,
        "brownout": brownout,
        "claims": _claims(gray, brownout),
    }
    write_payload(payload, RESULT_NAME, out_dir)

    table = Table(
        "fleet chaos: gray failures on worker 0 of "
        f"{n_workers} (durable fleet, {gray['n_requests']} requests)",
        ["kind", "bit_identical", "availability", "failovers",
         "failover_ms", "suspects", "completed"],
        note=f"brownout A/B: shed fraction "
             f"{brownout['baseline']['shed_fraction']:.2f} -> "
             f"{brownout['ladder']['shed_fraction']:.2f} with the ladder "
             f"({brownout['ladder']['brownout_tokens']} tokens browned "
             "out, all stage-attributed)")
    for point in gray["kinds"]:
        table.add_row(
            kind=point["kind"],
            bit_identical=point["bit_identical"],
            availability=point["availability"],
            failovers=point["failovers"],
            failover_ms=point["failover_latency_max_s"] * 1e3,
            suspects=point["worker_suspects"],
            completed=point["completed"])
    return table


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.bench.fleet_chaos",
        description="Fleet resilience: gray-failure kill/failover sweep "
                    "(bit-identity, availability, failover latency) plus "
                    "an overload brownout-ladder A/B.")
    parser.add_argument("--seed", type=int, default=0,
                        help="seeds the trace, the model, and the gray "
                             "fault plans")
    parser.add_argument("--n-steady", type=int, default=10)
    parser.add_argument("--n-burst", type=int, default=6)
    parser.add_argument("--output-tokens", type=int, default=8)
    parser.add_argument("--workers", type=int, default=4, dest="n_workers",
                        metavar="WORKERS")
    parser.add_argument("--blocks-per-worker", type=int, default=64)
    parser.add_argument("--snapshot-every", type=int, default=4)
    parser.add_argument("--overload-requests", type=int, default=40)
    parser.add_argument("--overload-rate", type=float, default=8.0,
                        dest="overload_rate_per_s", metavar="OVERLOAD_RATE")
    return run_cli(parser, argv, run_fleet_chaos, RESULT_NAME)


if __name__ == "__main__":
    raise SystemExit(main())
