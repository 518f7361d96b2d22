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

Results are written as ``BENCH_chaos.json`` (default: ``results/``); the
schema is validated by ``validate_payload`` / ``tests/bench/test_chaos.py``:
``fault_rates`` is a strictly increasing axis with >= 3 points, and every
serving/functional series has exactly one entry per rate.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import pathlib
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.bench.serve import TINY_LS, TINY_MODEL
from repro.bench.tables import Table, results_dir
from repro.core.config import LongSightConfig
from repro.core.hybrid import LongSightAttention
from repro.drex.backend import DrexOffloadBackend
from repro.llm.config import LLAMA3_8B, ModelConfig
from repro.llm.model import Transformer
from repro.serve.engine import AnalyticTiming, ServeEngine
from repro.serve.paged_kv import PagedKVPool
from repro.serve.scheduler import ServeRequest, SloPolicy
from repro.serve.workload import poisson_workload
from repro.system.baselines import SlidingWindowGpuSystem
from repro.system.engine import LongSightSystem
from repro.system.faults import FaultPlan

SCHEMA_VERSION = 2
RESULT_NAME = "BENCH_chaos.json"
WORKLOADS = ("steady", "burst")
SERVING_SYSTEMS = ("LongSight", "SlidingWindow")
#: Serving sessions decode a tiny prompt, charged as a 32K one.
PROMPT_TOKENS = 24
CHARGED_PROMPT_TOKENS = 32768
OUTPUT_TOKENS = 24


def burst_workload(n_sessions: int, burst_every: int = 4,
                   burst_gap_s: float = 2.0,
                   seed: int = 0) -> List[ServeRequest]:
    """Bursty arrivals: groups of requests land at one instant."""
    rng = np.random.default_rng(seed)
    requests = []
    for i in range(n_sessions):
        jitter = 1.0 + 0.25 * (2 * rng.random() - 1)
        prompt = rng.integers(0, TINY_MODEL.vocab_size,
                              size=max(1, int(PROMPT_TOKENS * jitter)))
        requests.append(ServeRequest(
            request_id=i, prompt=prompt, max_new_tokens=OUTPUT_TOKENS,
            arrival_s=(i // burst_every) * burst_gap_s,
            charged_prompt_tokens=max(
                1, int(CHARGED_PROMPT_TOKENS * jitter))))
    return requests


def _workload(name: str, n_sessions: int,
              seed: int) -> List[ServeRequest]:
    if name == "steady":
        return poisson_workload(n_sessions, 2.0, PROMPT_TOKENS,
                                OUTPUT_TOKENS, TINY_MODEL.vocab_size,
                                charged_prompt_tokens=CHARGED_PROMPT_TOKENS,
                                seed=seed)
    if name == "burst":
        return burst_workload(n_sessions, seed=seed)
    raise ValueError(f"unknown workload: {name!r}")


def serving_systems() -> Dict[str, tuple]:
    """Name -> (system model, faultable) for the serving sweep."""
    ls = LongSightSystem(LongSightConfig(window=1024, n_sink=16, top_k=1024,
                                         use_itq=True))
    sw = SlidingWindowGpuSystem(window=1024, n_sink=16)
    return {"LongSight": (ls, True),
            # The GPU-only baseline never offloads: fault-immune, the
            # quality/latency floor the degraded path converges to.
            "SlidingWindow": (sw, False)}


def _serving_point(system, config: ModelConfig, workload: str,
                   n_sessions: int, rate: float, seed: int,
                   faultable: bool) -> dict:
    if faultable:
        plan = _fault_mix(rate, seed)

        def factory(request):
            return DrexOffloadBackend(TINY_MODEL, TINY_LS, plan=plan,
                                      flush_granularity=1)
    else:
        sliding = TINY_LS.replace(top_k=0)

        def factory(request):
            return LongSightAttention(sliding)

    engine = ServeEngine(
        Transformer(TINY_MODEL, seed=seed),
        PagedKVPool(TINY_MODEL, n_blocks=16 * n_sessions, block_tokens=16),
        factory, policy=SloPolicy(max_decode_batch=n_sessions),
        timing=AnalyticTiming(system, config), name=system.name)
    report = engine.run(_workload(workload, n_sessions, seed))
    return {
        "fault_rate": rate if faultable else 0.0,
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
    mc = ModelConfig(name="chaos-tiny", vocab_size=64, n_layers=2,
                     n_q_heads=4, n_kv_heads=2, head_dim=8, d_ff=32,
                     qk_bias=True)
    cfg = LongSightConfig(window=8, n_sink=4, top_k=12, thresholds=5)
    model = Transformer(mc, seed=seed)
    tokens = np.random.default_rng(seed).integers(0, mc.vocab_size,
                                                  size=n_tokens)
    backend = DrexOffloadBackend(mc, cfg, plan=_fault_mix(rate, seed),
                                 flush_granularity=1, supervisor_seed=seed)
    out = model.forward_full(tokens, backend=backend, block_size=16)
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
    systems = serving_systems()
    serving: Dict[str, Dict[str, List[dict]]] = {
        w: {name: [] for name in SERVING_SYSTEMS} for w in WORKLOADS}
    for workload in WORKLOADS:
        for name, (system, faultable) in systems.items():
            for rate in rates:
                serving[workload][name].append(_serving_point(
                    system, LLAMA3_8B, workload, n_sessions, rate, seed,
                    faultable))
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
                   "seed": seed, "model": LLAMA3_8B.name,
                   "workloads": list(WORKLOADS)},
        "fault_rates": rates,
        "serving": serving,
        "functional": functional,
    }
    out_dir = pathlib.Path(out_dir) if out_dir is not None else results_dir()
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / RESULT_NAME).write_text(json.dumps(payload, indent=2) + "\n")

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
    problems = []
    for key in ("benchmark", "schema_version", "units", "config",
                "fault_rates", "serving", "functional"):
        if key not in payload:
            problems.append(f"missing key: {key}")
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
    parser.add_argument("--out-dir", type=pathlib.Path, default=None,
                        help="directory for BENCH_chaos.json "
                             "(default: results/)")
    args = parser.parse_args(argv)
    table = run_chaos(rates=args.rates, n_sessions=args.n_sessions,
                      n_tokens=args.n_tokens, seed=args.seed,
                      out_dir=args.out_dir)
    print(table.render())
    out_dir = args.out_dir if args.out_dir is not None else results_dir()
    print(f"[saved to {pathlib.Path(out_dir) / RESULT_NAME}]")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
