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
ratio, which must stay under the configured bound.  Each point is one
:mod:`repro.bench.scenario` scenario, :func:`trace` on
:func:`fleet_topology`, whose health monitor is inert: wall-clock jitter
must not drain a worker and move the analytic numbers.

Results are written as ``BENCH_fleet.json`` (default: ``results/``),
schema v2: ``workers_axis`` (>= 2 points starting at 1, sorted and
deduplicated on the way in), one sweep point per worker count, the
fairness A/B, and ``claims``, each over every sweep point:
``every_request_accounted`` (completed + shed + rejected = requests),
``times_nonnegative`` (throughput, makespan, TTFT and TPOT percentiles),
``ttft_p99_at_least_p50``, ``prefix_hits_nonzero``,
``fleet_beats_single_engine`` (every multi-worker point's throughput
above the one-worker point's) and ``fairness_within_limit``.
"""

from __future__ import annotations

import argparse
import math
import pathlib
from typing import List, Optional, Sequence

from repro.bench.scenario import (CHARGED_MODEL, TINY_MODEL, Scenario,
                                  Tenant, Topology, Trace, run)
from repro.bench.tables import Table, run_cli, write_payload
from repro.fleet import HealthPolicy
from repro.serve.scheduler import SloPolicy, TenantClass

SCHEMA_VERSION = 2
RESULT_NAME = "BENCH_fleet.json"
WALL_CLOCK = ()

#: admission weights: the steady tenant gets 4 slots per burst slot.
TENANTS = (TenantClass("steady", weight=4), TenantClass("burst", weight=1))
#: The sweep measures placement, not health: a monitor that never suspects.
INERT_HEALTH = HealthPolicy(step_deadline_s=math.inf, suspect_phi=math.inf,
                            fail_phi=math.inf)


def trace(n_steady: int, n_burst: int, seed: int = 0,
          output_tokens: int = 8, charged_context: int = 32_768,
          include_burst: bool = True) -> Trace:
    """Two-tenant trace with per-tenant shared system prefixes.

    Each tenant's requests open with the same block-aligned 32-token
    system prompt and diverge in a unique 20-27-token tail, so temporally
    overlapping sessions of one tenant hit the prefix cache.  Steady
    arrivals are Poisson at 50/s; burst arrivals all land at t=0.  Each
    tenant draws from its own stream, so the steady requests are
    identical whether or not the burst tenant is included (the fairness
    A/B).
    """
    def tenant(name, n, offset, **arrivals):
        return Tenant(n, 20, output_tokens, seed=seed + 1 + offset,
                      extra=8, charged=charged_context, prefix_tokens=32,
                      name=name, id_offset=1000 * offset, **arrivals)

    steady = tenant("steady", n_steady, 0, rate=50.0)
    burst = tenant("burst", n_burst, 1)
    return Trace((steady, burst) if include_burst else (steady,),
                 prefix_seed=seed)


def fleet_topology(n_workers: int, blocks_per_worker: int,
                   max_decode_batch: int, **durability) -> Topology:
    """``n_workers`` prefix-cached LongSight workers under per-tenant
    weighted admission (``durability``: ``snapshot_every``, ``health``)."""
    return Topology(policy=SloPolicy(max_decode_batch=max_decode_batch,
                                     tenant_classes=TENANTS),
                    n_blocks=blocks_per_worker, workers=n_workers,
                    **durability)


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

    def point(n_workers: int, include_burst: bool = True):
        return run(Scenario(
            trace(n_steady, n_burst, seed, output_tokens, charged_context,
                  include_burst),
            fleet_topology(n_workers, blocks_per_worker, max_decode_batch,
                           health=INERT_HEALTH),
            model_seed=seed)).report

    sweep = [point(n_workers).as_dict() for n_workers in workers_axis]

    # Fairness A/B at the first multi-worker point: the steady tenant's
    # p99 TTFT with the burst tenant present vs with it removed.
    fair_workers = workers_axis[1]
    contended = point(fair_workers)
    alone = point(fair_workers, include_burst=False)
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
    n_requests = n_steady + n_burst
    base_tps = sweep[0]["throughput_tps"]

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
            "charged_model": CHARGED_MODEL.name,
            "system": "longsight",
        },
        "workers_axis": workers_axis,
        "sweep": sweep,
        "fairness": fairness,
        "claims": {
            "every_request_accounted": all(
                p["completed"] + p["shed"] + p["rejected"] == n_requests
                for p in sweep),
            "times_nonnegative": all(
                p[key] >= 0 for p in sweep
                for key in ("throughput_tps", "makespan_s", "ttft_p50_s",
                            "ttft_p99_s", "tpot_p50_s", "tpot_p99_s")),
            "ttft_p99_at_least_p50":
                all(p["ttft_p99_s"] >= p["ttft_p50_s"] for p in sweep),
            "prefix_hits_nonzero": all(p["prefix"]["hits"] > 0
                                       for p in sweep),
            "fleet_beats_single_engine": all(
                p["throughput_tps"] > base_tps for p in sweep[1:]),
            "fairness_within_limit":
                0 <= fairness["degradation_ratio"] <= fairness_limit,
        },
    }
    write_payload(payload, RESULT_NAME, out_dir)

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


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.bench.fleet",
        description="Sharded fleet serving sweep: worker count vs "
                    "throughput, prefix-cache hit rate, and per-tenant "
                    "SLOs on a two-tenant shared-prefix trace.")
    parser.add_argument("--workers", type=int, nargs="+", default=[1, 2, 4],
                        dest="workers_axis", metavar="WORKERS",
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
    return run_cli(parser, argv, run_fleet, RESULT_NAME)


if __name__ == "__main__":
    raise SystemExit(main())
