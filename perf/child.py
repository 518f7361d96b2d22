"""One workload in one fresh interpreter: set-up, passes, checks.

Started by ``run.py`` (never imported by it: this module pulls in numpy
and ``repro``).  Prints one JSON object as the last line of stdout.

- ``--mode setup``: set-up only (imports, model build, request
  generation, reduced-size warm-up pass) and report its seconds;
- ``--mode measure``: set-up, then timed passes with tracing off for
  ``--seconds``, then the output checks;
- ``--mode trace``: set-up, host calibration, one untraced and one traced
  pass, the per-layer metrics and (``chat_burst``) the ``wrap.*`` ladder.
"""

from __future__ import annotations

import time

_PROCESS_START = time.perf_counter()

import argparse                                             # noqa: E402
import gc                                                   # noqa: E402
import hashlib                                              # noqa: E402
import json                                                 # noqa: E402
import os                                                   # noqa: E402
import pathlib                                              # noqa: E402
import resource                                             # noqa: E402
import shutil                                               # noqa: E402
import sys                                                  # noqa: E402
import tempfile                                             # noqa: E402

PERF = pathlib.Path(__file__).resolve().parent
sys.path.insert(0, str(PERF.parent / "src"))
sys.path.insert(0, str(PERF))

import numpy as np                                          # noqa: E402

import spans                                                # noqa: E402
import stats                                                # noqa: E402
import workloads as wl                                      # noqa: E402

MIN_PASSES = 2
OUT = PERF / "out"


def pass_metrics(result: wl.PassResult) -> dict:
    """The end-to-end numbers of one pass, from the outside stamps."""
    ttft = [t[0] - result.start for t in result.stamps.values() if t]
    gaps = [b - a for t in result.stamps.values() for a, b in zip(t, t[1:])]
    tokens = sum(len(o) for o in result.outputs.values())
    return {
        "output_tokens_per_s": tokens / result.wall_s,
        "ttft_p50_s": float(np.percentile(ttft, 50)),
        "ttft_p90_s": float(np.percentile(ttft, 90)),
        "itl_p50_ms": 1e3 * float(np.percentile(gaps, 50)),
        "itl_p95_ms": 1e3 * float(np.percentile(gaps, 95)),
        "recover_s": result.recover_s,
        "wall_s": result.wall_s,
        "n_ttft": len(ttft),
        "n_gaps": len(gaps),
    }


def outputs_digest(outputs: dict) -> str:
    h = hashlib.blake2b(digest_size=16)
    for rid in sorted(outputs):
        h.update(f"{rid}:{','.join(map(str, outputs[rid]))};".encode())
    return h.hexdigest()


class Harness:
    """Set-up once, then any number of passes on fresh pools and dirs."""

    def __init__(self, name: str, seed: int, size: str) -> None:
        self.name = name
        self.size = size
        OUT.mkdir(exist_ok=True)
        self.tmp_root = pathlib.Path(tempfile.mkdtemp(
            prefix=f"{name}-", dir=OUT))
        self._n_dirs = 0
        self.model = wl.build_model()
        self.specs = wl.GENERATORS[name](seed, size)
        # Reduced-size warm-up: fills lazy caches and first-call paths.
        small = wl.GENERATORS[name](seed, "small")
        wl.make_workload(name, "small").run_pass(self.model, small,
                                                 self.fresh_dir())
        self.workload = wl.make_workload(name, size)
        self.setup_s = time.perf_counter() - _PROCESS_START

    def fresh_dir(self) -> pathlib.Path:
        self._n_dirs += 1
        return self.tmp_root / f"d{self._n_dirs}"

    def run_pass(self, workload=None) -> wl.PassResult:
        # Engines and runs are reference cycles; collect the previous
        # pass's arenas now so peak RSS does not depend on GC timing.
        gc.collect()
        return (workload or self.workload).run_pass(
            self.model, self.specs, self.fresh_dir())

    def close(self) -> None:
        shutil.rmtree(self.tmp_root, ignore_errors=True)


# -- checks --------------------------------------------------------------------

def verified_ids(specs) -> list:
    """Requests compared with solo ``generate``: one in ten, at least two,
    shortest prompts first (solo generation of ``long_prompt``'s 4608-token
    prompt alone would cost as much as a timed pass)."""
    by_cost = sorted(specs, key=lambda s: (len(s.prompt), s.request_id))
    return [s.request_id for s in by_cost[:max(2, len(specs) // 10)]]


def check_outputs(harness: Harness, results: list) -> dict:
    """Which requests failed, and whether the passes agree with each other.

    A request succeeds only if it finished with every token in every pass,
    produced the same tokens in all passes, equals the no-crash reference
    (``crash_recover``) and, for the verified sample, equals solo
    ``generate`` token for token.
    """
    specs = harness.specs
    failed = set()
    for result in results:
        failed |= {s.request_id for s in specs} - set(result.outputs)
    first = results[0].outputs
    for result in results[1:]:
        failed |= {rid for rid in first
                   if result.outputs.get(rid) != first[rid]}
    reference = harness.workload.reference_outputs
    if reference is not None:
        failed |= {rid for rid, tokens in first.items()
                   if reference.get(rid) != tokens}
    by_id = {s.request_id: s for s in specs}
    sample = verified_ids(specs)
    for rid in sample:
        if first.get(rid) != wl.solo_outputs(harness.model, by_id[rid]):
            failed.add(rid)
    counts = [r.counts for r in results]
    digests = [outputs_digest(r.outputs) for r in results]
    deterministic = all(c == counts[0] for c in counts) \
        and all(d == digests[0] for d in digests)
    return {"failed_ids": sorted(failed), "verified_ids": sample,
            "deterministic": deterministic, "counts": counts,
            "digests": digests}


# -- modes ---------------------------------------------------------------------

def measure(harness: Harness, seconds: float, corrupt: bool) -> dict:
    results = []
    while True:
        results.append(harness.run_pass())
        spent = sum(r.wall_s for r in results)
        if len(results) >= MIN_PASSES \
                and spent + spent / len(results) > seconds:
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if corrupt:
        victim = results[-1].outputs[min(results[-1].outputs)]
        victim[-1] = (victim[-1] + 1) % wl.MODEL_CONFIG.vocab_size
    checks = check_outputs(harness, results)
    per_pass = [pass_metrics(r) for r in results]
    sent = sum(r.sent for r in results)
    failed = len(checks["failed_ids"]) * len(results)
    for row, result in zip(per_pass, results):
        row["sent"] = result.sent
        row["failed"] = len(checks["failed_ids"])
        row["succeeded"] = row["sent"] - row["failed"]
    metrics = {key: stats.summary([row[key] for row in per_pass])
               for key in ("output_tokens_per_s", "ttft_p50_s", "ttft_p90_s",
                           "itl_p50_ms")}
    metrics["peak_rss_mb"] = stats.summary([peak_rss_mb])
    return {
        "correct": not checks["failed_ids"] and checks["deterministic"],
        "attempted": sent, "failed": failed,
        "metrics": metrics, "passes": per_pass, "checks": checks,
    }


def calibrate_host() -> dict:
    """Peak copy and GEMM rates of this host (best of a few repeats)."""
    src = np.ones(1 << 24, dtype=np.uint8)       # 16 MiB
    dst = np.empty_like(src)
    best_copy = min(_timed(lambda: np.copyto(dst, src)) for _ in range(5))
    a = np.ones((512, 512))
    best_gemm = min(_timed(lambda: a @ a) for _ in range(5))
    return {"host.nproc": os.cpu_count() or 1,
            "host.memcpy_gbps": 2 * src.nbytes / best_copy / 1e9,
            "host.gemm_gflops": 2 * 512 ** 3 / best_gemm / 1e9}


def versions() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"python": sys.version.split()[0], "numpy": np.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}"}


def _timed(fn) -> float:
    t0 = time.perf_counter()
    fn()
    return time.perf_counter() - t0


def _counter(registries, name: str) -> float:
    return sum(r.counter(name).value for r in registries)


def layer_metrics(result: wl.PassResult, recorder: spans.Recorder,
                  untraced_wall_s: float) -> dict:
    """Per-layer metrics of the traced pass (self times by span name)."""
    table = spans.self_times(recorder.spans)

    def own(*names) -> float:
        return sum(table.get(n, (0, 0.0, 0.0))[2] for n in names)

    def calls(*names) -> int:
        return sum(table.get(n, (0, 0.0, 0.0))[0] for n in names)

    count = recorder.counts.get
    regs = result.registries
    queries = _counter(regs, "attention.queries")
    dense = _counter(regs, "attention.dense.accesses")
    candidates = _counter(regs, "attention.sparse.candidates")
    passed = _counter(regs, "attention.sparse.passed")
    selected = _counter(regs, "attention.sparse.selected")
    cfg = wl.MODEL_CONFIG
    tokens = queries / (cfg.n_q_heads * cfg.n_layers) if queries else 0.0
    kv_item = np.dtype(cfg.kv_dtype).itemsize
    # Computed, not measured: keys scored + values read + sign bytes of
    # every filtered candidate, per processed token.
    kv_bytes = ((dense + passed) + (dense + selected)) * cfg.head_dim \
        * kv_item + candidates * cfg.head_dim / 8
    admitted = count("serve.admitted_tokens", 0)
    wal_bytes = sum((d / "wal.log").stat().st_size
                    for d in result.durable_dirs
                    if (d / "wal.log").exists())
    root_self = own(spans.ROOT)
    return {
        "core.attn_prefill_s": own("core.attn_prefill"),
        "core.attn_decode_s": own("core.attn_decode"),
        "core.attn_calls": calls("core.attn_prefill", "core.attn_decode"),
        "core.scf_s": own("core.scf"),
        "core.topk_s": own("core.topk"),
        "core.filter_ratio": 2.0 * candidates
        / max(passed + 2.0 * selected, 1e-12) if candidates else 0.0,
        "core.keys_scored_per_query": (dense + passed) / queries
        if queries else 0.0,
        "core.kv_bytes_per_token": kv_bytes / tokens if tokens else 0.0,
        "llm.prefill_self_s": own("llm.prefill"),
        "llm.decode_self_s": own("llm.decode"),
        "llm.prefill_tokens": count("llm.prefill_tokens", 0),
        "llm.decode_tokens": count("llm.decode_tokens", 0),
        "llm.decode_batch_mean": count("llm.decode_tokens", 0)
        / max(count("llm.decode_calls", 0), 1),
        "serve.engine_self_s": own("serve.engine_step"),
        "serve.scheduler_s": own("serve.scheduler"),
        "serve.pool_s": own("serve.pool"),
        "serve.prefix_s": own("serve.prefix"),
        "serve.kv_gather_s": own("serve.kv_gather"),
        "serve.kv_append_s": own("serve.kv_append"),
        "serve.steps": result.counts["steps"],
        "serve.preemptions": result.counts["preemptions"],
        "serve.recompute_token_frac": count("serve.readmitted_tokens", 0)
        / admitted if admitted else 0.0,
        "serve.prefix_hit_frac": count("serve.attached_tokens", 0)
        / admitted if admitted else 0.0,
        "serve.pool_high_watermark_frac":
            result.counts["pool_high_watermark"] / result.pool_blocks,
        "durable.step_self_s": own("durable.step"),
        "durable.wal_append_s": own("durable.wal_append"),
        "durable.wal_sync_s": own("durable.wal_sync"),
        "durable.wal_records": calls("durable.wal_append"),
        "durable.wal_bytes": wal_bytes,
        "durable.snapshot_s": own("durable.snapshot"),
        "durable.snapshots": calls("durable.snapshot"),
        "durable.snapshot_bytes": count("durable.snapshot_bytes", 0),
        "durable.recover_s": result.recover_s,
        "durable.snapshot_load_s": count("durable.snapshot_load_s", 0.0),
        "durable.replay_s": count("durable.replay_s", 0.0),
        "durable.steps_replayed": count("durable.steps_replayed", 0),
        "durable.tokens_replayed": count("durable.tokens_replayed", 0),
        "fleet.router_self_s": own("fleet.run"),
        "fleet.dispatched": _counter(regs, "fleet.dispatched"),
        "fleet.migrations": result.counts["migrations"],
        "trace.overhead_frac": (result.wall_s - untraced_wall_s)
        / untraced_wall_s,
        "trace.coverage_frac": 1.0 - root_self / result.wall_s,
        "trace.spans": len(recorder.spans),
        "trace.wall_s": result.wall_s,
    }


def wrap_ladder(harness: Harness, fleet2_wall_s: float) -> dict:
    """Untraced wall of the ``chat_burst`` trace at each nesting level:
    solo ``generate`` loop, ``ServeEngine``, ``DurableRun``, a one-worker
    fleet, and (already measured) the two-worker fleet.  The bare engine,
    the durable run and the one-worker fleet get the whole fleet's blocks.
    """
    _, per_worker, snapshot_every = wl.CHAT_BURST[harness.size]
    blocks = 2 * per_worker
    t0 = time.perf_counter()
    for spec in harness.specs:
        wl.solo_outputs(harness.model, spec)
    solo = time.perf_counter() - t0
    serve = harness.run_pass(wl.EngineWorkload(
        "chat_burst", blocks, wl.CHAT_POLICY)).wall_s
    durable = harness.run_pass(wl.EngineWorkload(
        "chat_burst", blocks, wl.CHAT_POLICY, snapshot_every)).wall_s
    fleet1 = harness.run_pass(wl.ChatBurst(harness.size, 1, blocks)).wall_s
    return {
        "wrap.solo_s": solo,
        "wrap.serve_over_solo": serve / solo,
        "wrap.durable_over_serve": durable / serve,
        "wrap.fleet1_over_durable": fleet1 / durable,
        "wrap.fleet2_over_fleet1": fleet2_wall_s / fleet1,
        "wrap.bases_s": {"solo": solo, "serve": serve, "durable": durable,
                         "fleet1": fleet1, "fleet2": fleet2_wall_s},
    }


def trace(harness: Harness) -> dict:
    host = calibrate_host()
    before = harness.run_pass()
    ladder = dict.fromkeys(
        ("wrap.solo_s", "wrap.serve_over_solo", "wrap.durable_over_serve",
         "wrap.fleet1_over_durable", "wrap.fleet2_over_fleet1"), 0.0)
    if harness.name == "chat_burst":
        ladder = wrap_ladder(harness, before.wall_s)
    recorder = spans.Recorder()
    patches = spans.install(recorder)
    try:
        root = recorder.open(spans.ROOT)
        traced = harness.run_pass()
        recorder.close(root)
    finally:
        patches.remove()
    # The root span covers exactly the pass's own timed region.
    recorder.spans[root][1] = traced.start
    recorder.spans[root][2] = traced.start + traced.wall_s
    # Untraced passes on both sides of the traced one cancel slow drift.
    after = harness.run_pass()
    untraced_wall_s = (before.wall_s + after.wall_s) / 2.0
    spans.write_outputs(recorder.spans, OUT, harness.name)
    results = [before, traced, after]
    checks = check_outputs(harness, results)
    layer = layer_metrics(traced, recorder, untraced_wall_s)
    # Tail of the inter-token gaps, from the two untraced passes.  Not an
    # end-to-end metric: on chat_burst and crash_recover p95 sits on the
    # knee between ordinary decode gaps and snapshot/recovery stalls, so
    # it reads the host's noise, not the program (see README).
    layer["serve.itl_p95_ms"] = (pass_metrics(before)["itl_p95_ms"]
                                 + pass_metrics(after)["itl_p95_ms"]) / 2.0
    layer.update(host)
    layer.update(ladder)
    return {
        "correct": not checks["failed_ids"] and checks["deterministic"],
        "attempted": sum(r.sent for r in results),
        "failed": len(results) * len(checks["failed_ids"]),
        "layer": layer, "checks": checks, "versions": versions(),
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--mode", choices=("setup", "measure", "trace"),
                        required=True)
    parser.add_argument("--workload", choices=wl.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=16.0)
    parser.add_argument("--size", choices=("full", "small"), default="full")
    parser.add_argument("--corrupt", action="store_true",
                        help="flip one output token before the checks "
                             "(proves the check can fail)")
    args = parser.parse_args()
    harness = Harness(args.workload, args.seed, args.size)
    try:
        out = {"workload": args.workload, "seed": args.seed,
               "size": args.size, "setup_s": harness.setup_s,
               "requests_digest": wl.requests_digest(harness.specs)}
        if args.mode == "measure":
            out.update(measure(harness, args.seconds, args.corrupt))
        elif args.mode == "trace":
            out.update(trace(harness))
    finally:
        harness.close()
    print(json.dumps(out))
    return 0 if out.get("correct", True) else 1


if __name__ == "__main__":
    sys.exit(main())
