"""Fleet serving benchmark CLI (``python -m repro.bench.fleet``).

Sweeps the worker count through :class:`~repro.fleet.router.FleetRouter`
on a fixed two-tenant trace: a *steady* tenant (weight 4, Poisson
arrivals) and a *burst* tenant (weight 1, every request arriving at
once).  Each tenant shares a block-aligned system prefix across its
requests, so concurrently admitted sessions exercise the hash-keyed
copy-on-write prefix cache; per-tenant weighted admission bounds the
steady tenant's tail TTFT while the burst drains.

Every sweep point is a full :class:`~repro.fleet.report.FleetReport`
(``workers == 1`` is the single-engine baseline the fleet must beat);
a separate fairness section reruns the two-worker point with the burst
tenant removed and reports the steady tenant's p99-TTFT degradation
ratio, which must stay under the configured bound.

Results are written as ``BENCH_fleet.json`` (default: ``results/``);
the schema is validated by ``validate_payload`` /
``tests/bench/test_fleet.py``.
"""

from __future__ import annotations

import argparse
import json
import pathlib
from typing import List, Optional, Sequence

import numpy as np

from repro.bench.serve import TINY_LS, TINY_MODEL
from repro.bench.tables import Table, results_dir
from repro.fleet import FleetReport, FleetRouter, make_worker
from repro.llm.config import LLAMA3_8B
from repro.llm.model import Transformer
from repro.serve.workload import backend_factory, default_systems
from repro.serve.engine import AnalyticTiming
from repro.serve.scheduler import ServeRequest, SloPolicy, TenantClass
from repro.system.prefill import PrefillModel

SCHEMA_VERSION = 1
RESULT_NAME = "BENCH_fleet.json"

#: admission weights: the steady tenant gets 4 slots per burst slot.
TENANTS = (TenantClass("steady", weight=4), TenantClass("burst", weight=1))


def fleet_workload(n_steady: int, n_burst: int, vocab_size: int,
                   seed: int = 0, prefix_tokens: int = 32,
                   tail_tokens: int = 20, output_tokens: int = 8,
                   steady_rate_per_s: float = 50.0,
                   charged_context: int = 32_768,
                   include_burst: bool = True) -> List[ServeRequest]:
    """Two-tenant trace with per-tenant shared system prefixes.

    Each tenant's requests open with the same block-aligned
    ``prefix_tokens``-token system prompt and diverge in a unique tail,
    so temporally overlapping sessions of one tenant hit the prefix
    cache.  Burst arrivals all land at t=0; steady arrivals are Poisson.
    Separate RNG streams per concern keep the steady trace bit-identical
    whether or not the burst tenant is included (the fairness A/B).
    """
    prefix_rng = np.random.default_rng(seed)
    steady_rng = np.random.default_rng(seed + 1)
    burst_rng = np.random.default_rng(seed + 2)
    steady_prefix = prefix_rng.integers(0, vocab_size, size=prefix_tokens)
    burst_prefix = prefix_rng.integers(0, vocab_size, size=prefix_tokens)

    requests: List[ServeRequest] = []
    t = 0.0
    for i in range(n_steady):
        t += steady_rng.exponential(1.0 / steady_rate_per_s)
        tail = steady_rng.integers(
            0, vocab_size, size=tail_tokens + int(steady_rng.integers(0, 8)))
        requests.append(ServeRequest(
            request_id=i, prompt=np.concatenate([steady_prefix, tail]),
            max_new_tokens=output_tokens, arrival_s=t,
            charged_prompt_tokens=charged_context, tenant="steady"))
    if include_burst:
        for i in range(n_burst):
            tail = burst_rng.integers(
                0, vocab_size,
                size=tail_tokens + int(burst_rng.integers(0, 8)))
            requests.append(ServeRequest(
                request_id=1000 + i,
                prompt=np.concatenate([burst_prefix, tail]),
                max_new_tokens=output_tokens, arrival_s=0.0,
                charged_prompt_tokens=charged_context, tenant="burst"))
    return requests


def _build_fleet(n_workers: int, model: Transformer, system,
                 blocks_per_worker: int, max_decode_batch: int, *,
                 policy: Optional[SloPolicy] = None,
                 durable_root: Optional[pathlib.Path] = None,
                 snapshot_every: int = 8,
                 crash_plans: Optional[dict] = None,
                 gray_plans: Optional[dict] = None,
                 health=None) -> FleetRouter:
    """A fresh fleet: per-worker prefix-cached pools and analytic timing.

    Deterministic by construction — every random choice lives in the
    seeded trace (:func:`fleet_workload`) and the seeded model, both
    owned by the caller.  The resilience/durability knobs are forwarded
    so ``repro.bench.fleet_chaos`` can reuse the exact same fleet.
    """
    if policy is None:
        policy = SloPolicy(max_decode_batch=max_decode_batch,
                           tenant_classes=TENANTS)
    prefill = PrefillModel()
    factory = backend_factory("longsight", TINY_LS)
    workers = [
        make_worker(
            wid, model, factory, n_blocks=blocks_per_worker,
            block_tokens=16, policy=policy,
            timing_factory=lambda obs: AnalyticTiming(
                system, LLAMA3_8B, prefill=prefill, obs=obs),
            durable_root=durable_root)
        for wid in range(n_workers)
    ]
    return FleetRouter(workers, snapshot_every=snapshot_every,
                       crash_plans=crash_plans, gray_plans=gray_plans,
                       health=health)


def _run_point(n_workers: int, model: Transformer, system,
               blocks_per_worker: int, max_decode_batch: int,
               requests: Sequence[ServeRequest]) -> FleetReport:
    fleet = _build_fleet(n_workers, model, system, blocks_per_worker,
                         max_decode_batch)
    return fleet.run(requests)


def run_fleet(workers_axis: Sequence[int] = (1, 2, 4),
              n_steady: int = 8, n_burst: int = 8,
              output_tokens: int = 32, charged_context: int = 32_768,
              blocks_per_worker: int = 64, max_decode_batch: int = 4,
              fairness_limit: float = 5.0, seed: int = 0,
              out_dir: Optional[pathlib.Path] = None) -> Table:
    """Run the worker-count sweep; returns the table and writes the JSON."""
    workers_axis = sorted(set(int(w) for w in workers_axis))
    if not workers_axis or workers_axis[0] != 1:
        raise ValueError("workers axis must start at 1 (the single-engine "
                         "baseline the fleet is judged against)")
    if len(workers_axis) < 2:
        raise ValueError("need >= 2 worker-count points")

    model = Transformer(TINY_MODEL, seed=seed)
    system = default_systems()["longsight"]

    def trace(include_burst: bool = True) -> List[ServeRequest]:
        return fleet_workload(
            n_steady, n_burst, model.config.vocab_size, seed=seed,
            output_tokens=output_tokens, charged_context=charged_context,
            include_burst=include_burst)

    sweep: List[dict] = []
    for n_workers in workers_axis:
        report = _run_point(n_workers, model, system, blocks_per_worker,
                            max_decode_batch, trace())
        sweep.append(report.as_dict())

    # Fairness A/B at the first multi-worker point: the steady tenant's
    # p99 TTFT with the burst tenant present vs with it removed.
    fair_workers = workers_axis[1]
    contended = _run_point(fair_workers, model, system, blocks_per_worker,
                           max_decode_batch, trace())
    alone = _run_point(fair_workers, model, system, blocks_per_worker,
                       max_decode_batch, trace(include_burst=False))
    p99_contended = contended.pooled.ttft_percentile_s(99.0, tenant="steady")
    p99_alone = alone.pooled.ttft_percentile_s(99.0, tenant="steady")
    fairness = {
        "workers": fair_workers,
        "steady_ttft_p99_alone_s": p99_alone,
        "steady_ttft_p99_contended_s": p99_contended,
        "degradation_ratio": (p99_contended / p99_alone
                              if p99_alone else float("inf")),
        "limit": fairness_limit,
    }

    payload = {
        "benchmark": "fleet",
        "schema_version": SCHEMA_VERSION,
        "units": {
            "workers": "engine shards, each with a private paged KV pool",
            "throughput_tps": "decode tokens per second of fleet makespan",
            "ttft_s": "arrival to first token, seconds",
            "tpot_s": "mean seconds per output token after the first",
            "prefix.hit_rate": "fraction of full-block prefix lookups "
                               "served from a resident shared block",
        },
        "config": {
            "n_steady": n_steady, "n_burst": n_burst,
            "output_tokens": output_tokens,
            "charged_context": charged_context,
            "blocks_per_worker": blocks_per_worker,
            "max_decode_batch": max_decode_batch,
            "tenants": {t.name: t.weight for t in TENANTS},
            "seed": seed,
            "functional_model": TINY_MODEL.name,
            "charged_model": LLAMA3_8B.name,
            "system": "longsight",
        },
        "workers_axis": workers_axis,
        "sweep": sweep,
        "fairness": fairness,
    }
    out_dir = pathlib.Path(out_dir) if out_dir is not None else results_dir()
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / RESULT_NAME).write_text(json.dumps(payload, indent=2) + "\n")

    base_tps = sweep[0]["throughput_tps"]
    table = Table(
        "fleet sweep (worker count; two tenants, shared system prefixes)",
        ["workers", "throughput_tps", "speedup_vs_1", "ttft_p50_ms",
         "ttft_p99_ms", "hit_rate", "migrations", "completed", "shed"],
        note=f"{n_steady} steady + {n_burst} burst requests; fairness "
             f"ratio {fairness['degradation_ratio']:.2f} "
             f"(limit {fairness_limit}) at {fair_workers} workers")
    for point in sweep:
        table.add_row(
            workers=point["workers"],
            throughput_tps=point["throughput_tps"],
            speedup_vs_1=(point["throughput_tps"] / base_tps
                          if base_tps else float("inf")),
            ttft_p50_ms=point["ttft_p50_s"] * 1e3,
            ttft_p99_ms=point["ttft_p99_s"] * 1e3,
            hit_rate=point["prefix"]["hit_rate"],
            migrations=point["migrations"],
            completed=point["completed"],
            shed=point["shed"])
    return table


def validate_payload(payload: dict) -> List[str]:
    """Schema check used by the smoke test; returns a list of problems."""
    problems = []
    for key in ("benchmark", "schema_version", "units", "config",
                "workers_axis", "sweep", "fairness"):
        if key not in payload:
            problems.append(f"missing key: {key}")
    if problems:
        return problems
    axis = payload["workers_axis"]
    if not axis or axis[0] != 1:
        problems.append("workers_axis does not start at the single-engine "
                        "baseline (1)")
    if any(b >= a for a, b in zip(axis[1:], axis)):
        problems.append("workers_axis is not strictly increasing")
    sweep = payload["sweep"]
    if len(sweep) != len(axis):
        problems.append("sweep length != len(workers_axis)")
        return problems
    config = payload["config"]
    n_requests = config.get("n_steady", 0) + config.get("n_burst", 0)
    base_tps = None
    for n_workers, point in zip(axis, sweep):
        tag = f"sweep[workers={n_workers}]"
        if point.get("workers") != n_workers:
            problems.append(f"{tag}: workers field mismatch")
        for key in ("throughput_tps", "ttft_p50_s", "ttft_p99_s",
                    "tpot_p50_s", "tpot_p99_s", "makespan_s"):
            if not isinstance(point.get(key), (int, float)) \
                    or point[key] < 0:
                problems.append(f"{tag}: bad {key}")
        if point.get("ttft_p99_s", 0) < point.get("ttft_p50_s", 0):
            problems.append(f"{tag}: ttft p99 < p50")
        for key in ("completed", "shed", "rejected", "migrations",
                    "preemptions"):
            if not isinstance(point.get(key), int) or point[key] < 0:
                problems.append(f"{tag}: bad {key}")
        accounted = (point.get("completed", 0) + point.get("shed", 0)
                     + point.get("rejected", 0))
        if accounted != n_requests:
            problems.append(f"{tag}: completed+shed+rejected != "
                            f"{n_requests} requests")
        prefix = point.get("prefix", {})
        if prefix.get("hits", -1) < 0 or prefix.get("misses", -1) < 0:
            problems.append(f"{tag}: bad prefix counters")
        if not prefix.get("hits", 0) > 0:
            problems.append(f"{tag}: zero prefix-cache hits on a "
                            "shared-system-prompt workload")
        if n_workers == 1:
            base_tps = point.get("throughput_tps", 0.0)
        elif base_tps is not None \
                and point.get("throughput_tps", 0.0) <= base_tps:
            problems.append(f"{tag}: fleet throughput does not beat the "
                            "single-engine baseline")
        tenants = point.get("tenants", {})
        for tenant in ("steady", "burst"):
            if tenant not in tenants:
                problems.append(f"{tag}: missing tenant summary "
                                f"for {tenant!r}")
    fairness = payload["fairness"]
    ratio = fairness.get("degradation_ratio")
    limit = fairness.get("limit")
    if not isinstance(ratio, (int, float)) or ratio < 0:
        problems.append("fairness: bad degradation_ratio")
    elif not isinstance(limit, (int, float)) or ratio > limit:
        problems.append(
            f"fairness: steady-tenant p99 TTFT degraded {ratio}x under "
            f"the burst (limit {limit}) -- weighted admission failed")
    return problems


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.bench.fleet",
        description="Sharded fleet serving sweep: worker count vs "
                    "throughput, prefix-cache hit rate, and per-tenant "
                    "SLOs on a two-tenant shared-prefix trace.")
    parser.add_argument("--workers", type=int, nargs="+", default=[1, 2, 4],
                        help="worker counts to sweep (must include 1, "
                             "the single-engine baseline)")
    parser.add_argument("--n-steady", type=int, default=8,
                        help="steady-tenant (weight 4) request count")
    parser.add_argument("--n-burst", type=int, default=8,
                        help="burst-tenant (weight 1) request count, all "
                             "arriving at t=0")
    parser.add_argument("--output-tokens", type=int, default=32,
                        help="decode tokens per request; decode steps are "
                             "the serialized per-worker resource, so "
                             "sharding gains grow with this")
    parser.add_argument("--charged-context", type=int, default=32_768,
                        help="prompt tokens charged to the analytic "
                             "latency model")
    parser.add_argument("--blocks-per-worker", type=int, default=64)
    parser.add_argument("--max-decode-batch", type=int, default=4)
    parser.add_argument("--fairness-limit", type=float, default=5.0,
                        help="max allowed steady-tenant p99 TTFT "
                             "degradation under the burst")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--out-dir", type=pathlib.Path, default=None,
                        help=f"directory for {RESULT_NAME} "
                             "(default: results/)")
    args = parser.parse_args(argv)
    table = run_fleet(workers_axis=args.workers, n_steady=args.n_steady,
                      n_burst=args.n_burst, output_tokens=args.output_tokens,
                      charged_context=args.charged_context,
                      blocks_per_worker=args.blocks_per_worker,
                      max_decode_batch=args.max_decode_batch,
                      fairness_limit=args.fairness_limit, seed=args.seed,
                      out_dir=args.out_dir)
    print(table.render())
    out_dir = args.out_dir if args.out_dir is not None else results_dir()
    print(f"[saved to {pathlib.Path(out_dir) / RESULT_NAME}]")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
