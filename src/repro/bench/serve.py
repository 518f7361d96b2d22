"""Serving benchmark CLI (``python -m repro.bench.serve``).

Sweeps arrival rate x (charged) context length through the *functional*
continuous-batching engine: a tiny seeded transformer really decodes every
token for every request over the shared paged KV pool, while the engine's
clock advances by the paper-scale analytic step latencies — so TTFT, TPOT
and throughput are meaningful at paper scale and every scheduling decision
(admission, chunked prefill, preemption) is exercised for real.

Three systems per sweep point:

- ``longsight``  — hybrid dense+sparse attention, LongSight latency model;
- ``dense``      — full dense attention on the GPU latency model (the
  quality-equal baseline LongSight must beat at long context);
- ``sliding_window`` — dense window only (the quality-*sacrificing*
  floor; fastest by construction).

Each system's model also sets its capacity: the engine admits a session
only while the system holds every running session's charged context, so
``dense`` decodes at most three 128K sessions at once on one GPU while
``longsight`` keeps admitting (``peak_decode_batch``).

Results are written as ``BENCH_serve.json`` (default: ``results/``); the
schema is validated by ``validate_payload`` / ``tests/bench/test_serve.py``.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import time
from typing import Dict, List, Optional, Sequence

from repro.bench.tables import Table, results_dir
from repro.core.config import LongSightConfig
from repro.llm.config import LLAMA3_8B, ModelConfig
from repro.llm.model import Transformer
from repro.obs import MetricsRegistry, Obs, Tracer
from repro.serve.engine import AnalyticTiming, ServeEngine
from repro.serve.paged_kv import PagedKVPool
from repro.serve.scheduler import SloPolicy
from repro.serve.workload import (SYSTEM_NAMES, backend_factory,
                                  default_systems, poisson_workload)
from repro.system.prefill import PrefillModel

SCHEMA_VERSION = 2
RESULT_NAME = "BENCH_serve.json"

#: Tiny functional model: real tokens at laptop scale.
TINY_MODEL = ModelConfig(name="serve-tiny", vocab_size=64, n_layers=2,
                         n_q_heads=4, n_kv_heads=2, head_dim=8, d_ff=32,
                         qk_bias=True)
#: Tiny algorithm config sized to the tiny contexts actually decoded.
TINY_LS = LongSightConfig(window=8, n_sink=4, top_k=12, thresholds=3)


def _point(model: Transformer, system_name: str, system,
           rate: float, charged_context: int, n_requests: int,
           prompt_tokens: int, output_tokens: int, seed: int,
           obs: Optional[Obs] = None) -> dict:
    """One (system, arrival rate, context) cell of the sweep."""
    requests = poisson_workload(
        n_requests, rate, prompt_tokens, output_tokens,
        model.config.vocab_size, charged_prompt_tokens=charged_context,
        seed=seed)
    pool = PagedKVPool(model.config, n_blocks=16 * n_requests,
                       block_tokens=16)
    timing = AnalyticTiming(system, LLAMA3_8B, prefill=PrefillModel(),
                            obs=obs)
    engine = ServeEngine(
        model, pool, backend_factory(system_name, TINY_LS),
        policy=SloPolicy(max_decode_batch=max(4, n_requests)),
        timing=timing, name=system_name, obs=obs)
    report = engine.run(requests)
    point = report.as_dict()
    point.update({
        "arrival_rate_per_s": rate,
        "charged_context": charged_context,
        "all_tokens_served": all(
            len(r.outputs) == r.max_new_tokens or r.events.rejected
            for r in requests),
    })
    return point


def write_trace(model: Transformer, systems: dict, rate: float,
                charged_context: int, n_requests: int, prompt_tokens: int,
                output_tokens: int, seed: int,
                trace_out: pathlib.Path) -> dict:
    """Re-run one fully instrumented ``longsight`` point; dump the trace.

    A fresh enabled :class:`Tracer` is bound to the engine, the whole
    point runs under a single ``bench.serve_point`` root span, and the
    result is written as Chrome ``trace_event`` JSON (open in
    ``chrome://tracing`` or Perfetto).  Returns trace metadata including
    ``root_coverage`` — the fraction of the instrumented wall time the
    recorded spans explain, which must stay >= 0.95.
    """
    obs = Obs(MetricsRegistry(enabled=True), Tracer(enabled=True))
    start = time.perf_counter()
    with obs.tracer.span("bench.serve_point", system="longsight",
                         arrival_rate_per_s=rate,
                         charged_context=charged_context):
        _point(model, "longsight", systems["longsight"], rate,
               charged_context, n_requests, prompt_tokens, output_tokens,
               seed, obs=obs)
    wall_s = time.perf_counter() - start
    path = obs.tracer.write_chrome_trace(trace_out)
    return {"path": str(path),
            "n_spans": len(obs.tracer.spans),
            "wall_s": wall_s,
            "root_coverage": obs.tracer.root_coverage(wall_s)}


def run_serve(rates: Sequence[float] = (2.0, 200.0),
              contexts: Sequence[int] = (8_192, 32_768, 131_072),
              n_requests: int = 6, prompt_tokens: int = 24,
              output_tokens: int = 8, seed: int = 0,
              out_dir: Optional[pathlib.Path] = None,
              trace_out: Optional[pathlib.Path] = None) -> Table:
    """Run the serving sweep; returns the table and writes the JSON."""
    rates = sorted(set(float(r) for r in rates))
    contexts = sorted(set(int(c) for c in contexts))
    if len(rates) < 2:
        raise ValueError("need >= 2 arrival-rate points")
    if len(contexts) < 2:
        raise ValueError("need >= 2 context points")

    model = Transformer(TINY_MODEL, seed=seed)
    systems = default_systems()
    sweep: Dict[str, List[dict]] = {name: [] for name in SYSTEM_NAMES}
    for name in SYSTEM_NAMES:
        for rate in rates:
            for ctx in contexts:
                sweep[name].append(_point(
                    model, name, systems[name], rate, ctx, n_requests,
                    prompt_tokens, output_tokens, seed))

    payload = {
        "benchmark": "serve",
        "schema_version": SCHEMA_VERSION,
        "units": {"arrival_rate_per_s": "requests per second (Poisson)",
                  "charged_context": "prompt tokens charged to the "
                                     "analytic latency model",
                  "throughput_tps": "decode tokens per second of engine "
                                    "clock",
                  "ttft_s": "arrival to first token, seconds",
                  "tpot_s": "mean seconds per output token after the "
                            "first"},
        "config": {"n_requests": n_requests,
                   "prompt_tokens": prompt_tokens,
                   "output_tokens": output_tokens, "seed": seed,
                   "functional_model": TINY_MODEL.name,
                   "charged_model": LLAMA3_8B.name,
                   "systems": list(SYSTEM_NAMES)},
        "arrival_rates": rates,
        "contexts": contexts,
        "sweep": sweep,
    }
    if trace_out is not None:
        payload["trace"] = write_trace(
            model, systems, rates[0], contexts[0], n_requests,
            prompt_tokens, output_tokens, seed, pathlib.Path(trace_out))
        print(f"[chrome trace: {payload['trace']['path']}  "
              f"spans={payload['trace']['n_spans']}  "
              f"root_coverage={payload['trace']['root_coverage']:.3f}]")
    out_dir = pathlib.Path(out_dir) if out_dir is not None else results_dir()
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / RESULT_NAME).write_text(json.dumps(payload, indent=2) + "\n")

    table = Table(
        "functional serving sweep (arrival rate x charged context)",
        ["system", "rate_per_s", "context", "throughput_tps",
         "peak_batch", "ttft_p50_ms", "ttft_p99_ms", "tpot_p50_ms",
         "completed", "preempt"],
        note=f"{n_requests} requests/point; tiny model decodes real "
             f"tokens, clock charged for {LLAMA3_8B.name}")
    for name in SYSTEM_NAMES:
        for point in sweep[name]:
            table.add_row(
                system=name,
                rate_per_s=point["arrival_rate_per_s"],
                context=point["charged_context"],
                throughput_tps=point["throughput_tps"],
                peak_batch=point["peak_decode_batch"],
                ttft_p50_ms=point["ttft_p50_s"] * 1e3,
                ttft_p99_ms=point["ttft_p99_s"] * 1e3,
                tpot_p50_ms=point["tpot_p50_s"] * 1e3,
                completed=point["completed"],
                preempt=point["preemptions"])
    return table


def validate_payload(payload: dict) -> List[str]:
    """Schema check used by the smoke test; returns a list of problems."""
    problems = []
    for key in ("benchmark", "schema_version", "units", "config",
                "arrival_rates", "contexts", "sweep"):
        if key not in payload:
            problems.append(f"missing key: {key}")
    if problems:
        return problems
    rates = payload["arrival_rates"]
    contexts = payload["contexts"]
    if len(rates) < 2:
        problems.append("fewer than 2 arrival-rate points")
    if any(b >= a for a, b in zip(rates[1:], rates)):
        problems.append("arrival_rates axis is not strictly increasing")
    if len(contexts) < 2:
        problems.append("fewer than 2 context points")
    if any(b >= a for a, b in zip(contexts[1:], contexts)):
        problems.append("contexts axis is not strictly increasing")
    n_points = len(rates) * len(contexts)
    for name in SYSTEM_NAMES:
        points = payload["sweep"].get(name)
        if points is None or len(points) != n_points:
            problems.append(
                f"sweep.{name} length != len(rates) * len(contexts)")
            continue
        for point in points:
            for key in ("throughput_tps", "ttft_p50_s", "ttft_p99_s",
                        "tpot_p50_s", "tpot_p99_s"):
                if not isinstance(point.get(key), (int, float)) \
                        or point[key] < 0:
                    problems.append(f"sweep.{name}: bad {key}")
            if point.get("ttft_p99_s", 0) < point.get("ttft_p50_s", 0):
                problems.append(f"sweep.{name}: ttft p99 < p50")
            if not point.get("all_tokens_served", False):
                problems.append(
                    f"sweep.{name}: a non-rejected request did not get "
                    "its full output (service guarantee violated)")
            pool = point.get("pool", {})
            if not 0 <= pool.get("high_watermark", -1) \
                    <= pool.get("n_blocks", 0):
                problems.append(f"sweep.{name}: bad pool accounting")
    return problems


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.bench.serve",
        description="Functional continuous-batching serving sweep: "
                    "arrival rate x context, LongSight vs dense baselines.")
    parser.add_argument("--rates", type=float, nargs="+",
                        default=[2.0, 200.0],
                        help=">= 2 Poisson arrival rates (requests/s)")
    parser.add_argument("--contexts", type=int, nargs="+",
                        default=[8192, 32768, 131072],
                        help=">= 2 charged context lengths (tokens)")
    parser.add_argument("--n-requests", type=int, default=6)
    parser.add_argument("--prompt-tokens", type=int, default=24,
                        help="functional (tiny-model) prompt length")
    parser.add_argument("--output-tokens", type=int, default=8)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--out-dir", type=pathlib.Path, default=None,
                        help=f"directory for {RESULT_NAME} "
                             "(default: results/)")
    parser.add_argument("--trace-out", type=pathlib.Path, default=None,
                        help="also run one fully traced longsight point "
                             "and write a Chrome trace_event JSON here")
    args = parser.parse_args(argv)
    table = run_serve(rates=args.rates, contexts=args.contexts,
                      n_requests=args.n_requests,
                      prompt_tokens=args.prompt_tokens,
                      output_tokens=args.output_tokens, seed=args.seed,
                      out_dir=args.out_dir, trace_out=args.trace_out)
    print(table.render())
    out_dir = args.out_dir if args.out_dir is not None else results_dir()
    print(f"[saved to {pathlib.Path(out_dir) / RESULT_NAME}]")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
