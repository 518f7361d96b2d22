"""Chaos benchmark CLI (``python -m repro.bench.chaos``).

Sweeps fault rates x workloads through two layers of the stack:

- **Serving**: the continuous-batching engine decodes a tiny transformer's
  tokens on steady-Poisson and bursty arrival traces, its clock charged
  for :class:`LongSightSystem`.  Every LongSight session offloads through
  its own supervised :class:`DrexOffloadBackend` under the rate's
  :class:`FaultPlan`; a session whose offloads keep failing is pinned to
  the dense window (shed from the sparse path) and still completes.  The
  fault-immune :class:`SlidingWindowGpuSystem` baseline, the hybrid at
  ``top_k = 0``, is the floor LongSight degrades *toward*, never below.
- **Functional**: a tiny seeded Transformer decodes end to end through
  :class:`DrexOffloadBackend` against an injected fault mix at each
  rate, recording degraded-token fraction, retries, repairs, and that
  generation always completes (the dense-fallback guarantee).

The serving sweep is a list of :mod:`repro.bench.scenario` scenarios, one
per (workload, system, rate) (:func:`scenario`); the functional check is
a plain decode, not a serving world.

Results are written as ``BENCH_chaos.json`` (default: ``results/``); the
schema is validated by ``validate_payload`` / ``tests/bench/test_chaos.py``:
``fault_rates`` is a strictly increasing axis with >= 3 points, and every
serving/functional series has exactly one entry per rate.
"""

from __future__ import annotations

import argparse
import dataclasses
import pathlib
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.bench.scenario import (CHARGED_MODEL, TINY_LS, TINY_MODEL,
                                  Faults, Scenario, Tenant, Topology, Trace,
                                  run, tiny_model)
from repro.bench.tables import (Table, missing_keys, run_cli,
                                write_payload)
from repro.drex.backend import DrexOffloadBackend
from repro.faults import FaultPlan
from repro.serve.scheduler import SloPolicy

SCHEMA_VERSION = 2
RESULT_NAME = "BENCH_chaos.json"
WORKLOADS = ("steady", "burst")
#: serving name -> (analytic system, backend kind).  The GPU-only
#: baseline never offloads: fault-immune, the quality/latency floor the
#: degraded path converges to.
SERVING_SYSTEMS = {"LongSight": ("longsight", "offload"),
                   "SlidingWindow": ("sliding_window", "sliding_window")}
#: Serving sessions decode a tiny prompt, charged as a 32K one.
PROMPT_TOKENS = 24
CHARGED_PROMPT_TOKENS = 32768
OUTPUT_TOKENS = 24


def scenario(workload: str, name: str, n_sessions: int, rate: float,
             seed: int) -> Scenario:
    """One serving point: ``steady`` Poisson arrivals at 2/s or ``burst``
    groups of four every 2 s, on one engine of system ``name``, its
    offloads (if any) under the rate's fault mix."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload: {workload!r}")
    arrivals = dict(rate=2.0) if workload == "steady" \
        else dict(group=4, gap_s=2.0)
    system, backend = SERVING_SYSTEMS[name]
    return Scenario(
        Trace((Tenant(n_sessions, PROMPT_TOKENS, OUTPUT_TOKENS, seed=seed,
                      charged=CHARGED_PROMPT_TOKENS, **arrivals),)),
        Topology(system=system, backend=backend,
                 policy=SloPolicy(max_decode_batch=n_sessions),
                 n_blocks=16 * n_sessions, charge_prefill=False),
        Faults(offload=_fault_mix(rate, seed)
               if backend == "offload" else None),
        model_seed=seed)


def _serving_point(workload: str, name: str, n_sessions: int, rate: float,
                   seed: int) -> dict:
    sc = scenario(workload, name, n_sessions, rate, seed)
    report = run(sc).report
    return {
        "fault_rate": rate if sc.faults.offload is not None else 0.0,
        "throughput_tps": report.throughput_tps,
        "tokens_generated": report.tokens_generated,
        "degraded_token_fraction": report.degraded_token_fraction,
        "availability": report.availability,
        "completed_sessions": len(report.completed),
        "shed_sessions": len(report.shed),
        "mean_queueing_delay_s": report.mean_queueing_delay_s,
    }


def _fault_mix(rate: float, seed: int) -> FaultPlan:
    """The injected mix at sweep point ``rate``: every transient kind at
    ``rate`` plus sign-store corruption at a quarter of it."""
    return dataclasses.replace(FaultPlan.uniform(rate, seed=seed),
                               kso_corruption_rate=rate / 4.0)


def _functional_point(rate: float, seed: int, n_tokens: int) -> dict:
    cfg = TINY_LS.replace(thresholds=5)
    tokens = np.random.default_rng(seed).integers(
        0, TINY_MODEL.vocab_size, size=n_tokens)
    backend = DrexOffloadBackend(TINY_MODEL, cfg,
                                 plan=_fault_mix(rate, seed))
    out = tiny_model(seed).forward_full(tokens, backend=backend,
                                        block_size=16)
    stats = backend.supervisor.stats
    return {
        "fault_rate": rate,
        "tokens": int(n_tokens),
        "completed": bool(np.isfinite(out).all()),
        "degraded_token_fraction": backend.degraded_token_fraction,
        "offload_attempts": stats.attempts,
        "retries": stats.retries,
        "timeouts": stats.timeouts,
        "queue_full": stats.queue_full,
        "kso_repairs": stats.repairs,
        "injected_faults": backend.device.injector.total_fired,
    }


def run_chaos(rates: Sequence[float] = (0.0, 0.25, 1.0),
              n_sessions: int = 10, n_tokens: int = 56, seed: int = 0,
              out_dir: Optional[pathlib.Path] = None) -> Table:
    """Run the chaos sweep; returns the table and writes the JSON."""
    rates = sorted(set(float(r) for r in rates))
    if len(rates) < 3:
        raise ValueError("need >= 3 fault-rate points")
    serving: Dict[str, Dict[str, List[dict]]] = {
        workload: {name: [_serving_point(workload, name, n_sessions, rate,
                                         seed) for rate in rates]
                   for name in SERVING_SYSTEMS}
        for workload in WORKLOADS}
    functional = [_functional_point(rate, seed, n_tokens) for rate in rates]

    payload = {
        "benchmark": "chaos",
        "schema_version": SCHEMA_VERSION,
        "units": {"fault_rate": "per-offload failure probability",
                  "throughput_tps": "decode tokens per second",
                  "degraded_token_fraction":
                      "fraction of tokens served dense-only",
                  "availability": "completed un-shed / completed sessions"},
        "config": {"n_sessions": n_sessions, "n_tokens": n_tokens,
                   "seed": seed, "model": CHARGED_MODEL.name,
                   "workloads": list(WORKLOADS)},
        "fault_rates": rates,
        "serving": serving,
        "functional": functional,
    }
    write_payload(payload, RESULT_NAME, out_dir)

    table = Table(
        "chaos sweep (fault rate x workload; serving + functional)",
        ["section", "workload", "system", "fault_rate", "throughput_tps",
         "degraded_frac", "availability", "shed", "queue_delay_s",
         "retries"],
        note=f"{n_sessions} sessions/workload; functional: tiny model, "
             f"{n_tokens} tokens through DrexOffloadBackend")
    for workload in WORKLOADS:
        for name in SERVING_SYSTEMS:
            for point in serving[workload][name]:
                table.add_row(
                    section="serving", workload=workload, system=name,
                    fault_rate=point["fault_rate"],
                    throughput_tps=point["throughput_tps"],
                    degraded_frac=point["degraded_token_fraction"],
                    availability=point["availability"],
                    shed=point["shed_sessions"],
                    queue_delay_s=point["mean_queueing_delay_s"])
    for point in functional:
        table.add_row(
            section="functional", workload="decode", system="Supervised",
            fault_rate=point["fault_rate"],
            degraded_frac=point["degraded_token_fraction"],
            availability=1.0 if point["completed"] else 0.0,
            retries=point["retries"])
    return table


def validate_payload(payload: dict) -> List[str]:
    """Schema check used by the smoke test; returns a list of problems."""
    problems = missing_keys(payload, (
        "benchmark", "schema_version", "units", "config", "fault_rates",
        "serving", "functional"))
    if problems:
        return problems
    rates = payload["fault_rates"]
    if len(rates) < 3:
        problems.append("fewer than 3 fault-rate points")
    if any(b >= a for a, b in zip(rates[1:], rates)):
        problems.append("fault_rates axis is not strictly increasing")
    for workload in WORKLOADS:
        per_system = payload["serving"].get(workload)
        if per_system is None:
            problems.append(f"missing serving workload: {workload}")
            continue
        for name in SERVING_SYSTEMS:
            points = per_system.get(name)
            if points is None or len(points) != len(rates):
                problems.append(
                    f"serving.{workload}.{name} length != len(fault_rates)")
                continue
            for point in points:
                frac = point.get("degraded_token_fraction", -1.0)
                if not 0.0 <= frac <= 1.0:
                    problems.append(
                        f"serving.{workload}.{name}: degraded fraction "
                        f"{frac} outside [0, 1]")
                if not 0.0 <= point.get("availability", -1.0) <= 1.0:
                    problems.append(
                        f"serving.{workload}.{name}: bad availability")
    functional = payload["functional"]
    if len(functional) != len(rates):
        problems.append("functional length != len(fault_rates)")
    for point in functional:
        if not point.get("completed", False):
            problems.append(
                f"functional run at rate {point.get('fault_rate')} did not "
                "complete — dense fallback guarantee violated")
        if not 0.0 <= point.get("degraded_token_fraction", -1.0) <= 1.0:
            problems.append("functional: degraded fraction outside [0, 1]")
    return problems


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.bench.chaos",
        description="Fault-rate sweep: serving dynamics under failures plus "
                    "functional dense-fallback verification.")
    parser.add_argument("--rates", type=float, nargs="+",
                        default=[0.0, 0.25, 1.0],
                        help=">= 3 per-offload failure probabilities")
    parser.add_argument("--n-sessions", type=int, default=10)
    parser.add_argument("--n-tokens", type=int, default=56,
                        help="decode length for the functional check")
    parser.add_argument("--seed", type=int, default=0)
    return run_cli(parser, argv, run_chaos, RESULT_NAME)


if __name__ == "__main__":
    raise SystemExit(main())
