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

The sweep is a list of :mod:`repro.bench.scenario` scenarios, one per
(system, rate, context) cell (:func:`scenario`): a seeded Poisson trace
on one engine of that system.

Results are written as ``BENCH_serve.json`` (default: ``results/``),
schema v3: ``arrival_rates`` and ``contexts`` (>= 2 points each, sorted
and deduplicated on the way in), one sweep point per (rate, context) per
system, and ``claims``, each over every point: ``all_tokens_served``
(every non-rejected request got its full output), ``times_nonnegative``
(throughput, TTFT and TPOT percentiles), ``ttft_p99_at_least_p50`` and
``pool_within_size`` (the pool's high-water mark).
"""

from __future__ import annotations

import argparse
import pathlib
import time
from typing import Dict, List, Optional, Sequence

from repro.bench.scenario import (CHARGED_MODEL, TINY_MODEL, Scenario,
                                  Tenant, Topology, Trace, run)
from repro.bench.tables import Table, run_cli, write_payload
from repro.obs import MetricsRegistry, Obs, Tracer
from repro.serve.scheduler import SloPolicy
from repro.serve.workload import SYSTEM_NAMES

SCHEMA_VERSION = 3
RESULT_NAME = "BENCH_serve.json"
WALL_CLOCK = ()


def scenario(system_name: str, rate: float, charged_context: int,
             n_requests: int, prompt_tokens: int, output_tokens: int,
             seed: int) -> Scenario:
    """One (system, arrival rate, context) cell of the sweep: a Poisson
    trace on one engine of that system."""
    return Scenario(
        Trace((Tenant(n_requests, prompt_tokens, output_tokens, seed=seed,
                      rate=rate, charged=charged_context),)),
        Topology(system=system_name, backend=system_name,
                 policy=SloPolicy(max_decode_batch=max(4, n_requests)),
                 n_blocks=16 * n_requests),
        model_seed=seed)


def _point(system_name: str, rate: float, charged_context: int,
           n_requests: int, prompt_tokens: int, output_tokens: int,
           seed: int, obs: Optional[Obs] = None) -> dict:
    outcome = run(scenario(system_name, rate, charged_context, n_requests,
                           prompt_tokens, output_tokens, seed), obs=obs)
    point = outcome.report.as_dict()
    point.update({
        "arrival_rate_per_s": rate,
        "charged_context": charged_context,
        "all_tokens_served": all(
            len(r.outputs) == r.max_new_tokens or r.events.rejected
            for r in outcome.world.served),
    })
    return point


def write_trace(rate: float, charged_context: int, n_requests: int,
                prompt_tokens: int, output_tokens: int, seed: int,
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
        _point("longsight", rate, charged_context, n_requests,
               prompt_tokens, output_tokens, seed, obs=obs)
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

    sweep: Dict[str, List[dict]] = {
        name: [_point(name, rate, ctx, n_requests, prompt_tokens,
                      output_tokens, seed)
               for rate in rates for ctx in contexts]
        for name in SYSTEM_NAMES}
    points = [point for series in sweep.values() for point in series]

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
                   "charged_model": CHARGED_MODEL.name,
                   "systems": list(SYSTEM_NAMES)},
        "arrival_rates": rates,
        "contexts": contexts,
        "sweep": sweep,
        "claims": {
            "all_tokens_served": all(p["all_tokens_served"] for p in points),
            "times_nonnegative": all(
                p[key] >= 0 for p in points
                for key in ("throughput_tps", "ttft_p50_s", "ttft_p99_s",
                            "tpot_p50_s", "tpot_p99_s")),
            "ttft_p99_at_least_p50":
                all(p["ttft_p99_s"] >= p["ttft_p50_s"] for p in points),
            "pool_within_size": all(
                0 <= p["pool"]["high_watermark"] <= p["pool"]["n_blocks"]
                for p in points),
        },
    }
    if trace_out is not None:
        payload["trace"] = write_trace(
            rates[0], contexts[0], n_requests, prompt_tokens,
            output_tokens, seed, pathlib.Path(trace_out))
        print(f"[chrome trace: {payload['trace']['path']}  "
              f"spans={payload['trace']['n_spans']}  "
              f"root_coverage={payload['trace']['root_coverage']:.3f}]")
    write_payload(payload, RESULT_NAME, out_dir)

    table = Table(
        "functional serving sweep (arrival rate x charged context)",
        ["system", "rate_per_s", "context", "throughput_tps",
         "peak_batch", "ttft_p50_ms", "ttft_p99_ms", "tpot_p50_ms",
         "completed", "preempt"],
        note=f"{n_requests} requests/point; tiny model decodes real "
             f"tokens, clock charged for {CHARGED_MODEL.name}")
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
    parser.add_argument("--trace-out", type=pathlib.Path, default=None,
                        help="also run one fully traced longsight point "
                             "and write a Chrome trace_event JSON here")
    return run_cli(parser, argv, run_serve, RESULT_NAME)


if __name__ == "__main__":
    raise SystemExit(main())
