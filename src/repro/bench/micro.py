"""Attention microbenchmark CLI (``python -m repro.bench.micro``).

Times prefill and decode for four attention backends across context
lengths:

- ``sliding_window`` — the StreamingLLM-style baseline (O(window)/query),
- ``hybrid_reference`` — the per-head reference loop
  (:class:`~repro.core.reference.ReferenceAttention`),
- ``hybrid_fast`` — :class:`LongSightAttention` consuming the KV cache's
  incremental sign store at ``prefill_tile=0`` (the whole sparse span as
  one tile),
- ``hybrid_tiled`` — the same kernel streaming keys/signs in
  ``--prefill-tile`` column tiles, so large contexts never materialize an
  ``(n_queries, n_ctx)`` count or score array.

Prefill series whose working set grows with the context (the reference
loop and the single-tile kernel) are only measured up to
``--max-reference-context``; beyond it their entries are ``null`` — a
256k reference prefill would take hours and teach nothing.  Decode is
cheap for every backend, so decode series are always complete, which
keeps the long-context decode speedup (the paper's headline number)
directly measurable at every point of the curve.

Results are written as ``BENCH_attention.json`` (default: ``results/``) so
later performance work has a trajectory to regress against.  Schema v3
(v2 minus the series and config block of the removed block-scoring
backend) is validated by ``tests/bench/test_micro.py``:

- ``contexts`` is a strictly increasing token-count axis,
- every backend series has one entry per context (prefill entries may be
  ``null`` above the reference cap),
- ``speedup.decode`` / ``speedup.prefill`` hold per-backend
  reference-time / backend-time curves (``null`` where either side was
  not measured),
- all times are seconds (best of ``--repeats``).
"""

from __future__ import annotations

import argparse
import json
import pathlib
import time
from typing import Callable, Dict, List, Optional, Sequence

import numpy as np

from repro.bench.tables import Table, results_dir
from repro.core.config import LongSightConfig
from repro.core.hybrid import LongSightAttention, SlidingWindowAttention
from repro.core.reference import ReferenceAttention
from repro.llm.config import ModelConfig
from repro.llm.kv_cache import KVCache

SCHEMA_VERSION = 3
RESULT_NAME = "BENCH_attention.json"
BACKENDS = ("sliding_window", "hybrid_reference", "hybrid_fast",
            "hybrid_tiled")
#: Backends whose *prefill* temporaries are ``(n_queries, n_ctx)`` wide;
#: their prefill series stop at ``max_reference_context``.
QUADRATIC_PREFILL = ("hybrid_reference", "hybrid_fast")


def bench_model_config(n_q_heads: int = 8, n_kv_heads: int = 2,
                       head_dim: int = 64) -> ModelConfig:
    """A single-layer attention-only stand-in (weights are never run)."""
    return ModelConfig(name="bench-attn", vocab_size=256, n_layers=1,
                       n_q_heads=n_q_heads, n_kv_heads=n_kv_heads,
                       head_dim=head_dim, d_ff=4 * n_q_heads * head_dim)


def _time_best(fn: Callable[[], object], repeats: int) -> float:
    best = float("inf")
    for _ in range(max(1, repeats)):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def _backend_stack(cfg: LongSightConfig, prefill_tile: int) -> Dict[str, object]:
    """Fresh backend instances, one per benchmarked series."""
    return {
        "sliding_window": SlidingWindowAttention(window=cfg.window,
                                                 n_sink=cfg.n_sink),
        "hybrid_reference": ReferenceAttention(cfg),
        "hybrid_fast": LongSightAttention(cfg.replace(prefill_tile=0)),
        "hybrid_tiled": LongSightAttention(
            cfg.replace(prefill_tile=prefill_tile)),
    }


def _decode_runners(mc: ModelConfig, cfg: LongSightConfig, k: np.ndarray,
                    v: np.ndarray, q: np.ndarray,
                    prefill_tile: int) -> Dict[str, Callable]:
    """One-token decode at full context, per backend.

    Cache-consuming backends get a pre-populated cache with their packed
    sign store already built, mirroring steady-state decode where appends
    maintain it token by token.
    """
    stack = _backend_stack(cfg, prefill_tile)
    caches: Dict[str, KVCache] = {}
    for name in ("hybrid_fast", "hybrid_tiled"):
        cache = KVCache(mc)
        stack[name].prepare_cache(cache)
        cache.append(0, k, v)
        caches[name] = cache
    return {
        "sliding_window": lambda: stack["sliding_window"].forward(0, q, k, v),
        "hybrid_reference":
            lambda: stack["hybrid_reference"].forward(0, q, k, v),
        "hybrid_fast":
            lambda: stack["hybrid_fast"].forward_cached(
                0, q, caches["hybrid_fast"]),
        "hybrid_tiled":
            lambda: stack["hybrid_tiled"].forward_cached(
                0, q, caches["hybrid_tiled"]),
    }


def _prefill_runners(mc: ModelConfig, cfg: LongSightConfig, k: np.ndarray,
                     v: np.ndarray, q_full: np.ndarray, block_size: int,
                     prefill_tile: int) -> Dict[str, Callable]:
    """Blockwise prefill over the whole context, per backend."""
    n_ctx = k.shape[1]
    stack = _backend_stack(cfg, prefill_tile)

    def run_stateless(backend) -> None:
        for start in range(0, n_ctx, block_size):
            stop = min(start + block_size, n_ctx)
            backend.forward(0, q_full[:, start:stop], k[:, :stop], v[:, :stop])

    def run_cached(backend) -> Callable[[], None]:
        def run() -> None:
            cache = KVCache(mc)
            cache.reserve(n_ctx)
            backend.prepare_cache(cache)
            for start in range(0, n_ctx, block_size):
                stop = min(start + block_size, n_ctx)
                cache.append(0, k[:, start:stop], v[:, start:stop])
                backend.forward_cached(0, q_full[:, start:stop], cache)
        return run

    return {
        "sliding_window": lambda: run_stateless(stack["sliding_window"]),
        "hybrid_reference": lambda: run_stateless(stack["hybrid_reference"]),
        "hybrid_fast": run_cached(stack["hybrid_fast"]),
        "hybrid_tiled": run_cached(stack["hybrid_tiled"]),
    }


def run_micro(contexts: Sequence[int] = (512, 1024, 2048, 4096),
              repeats: int = 5, window: int = 128, n_sink: int = 16,
              top_k: int = 128, threshold: Optional[float] = None,
              n_q_heads: int = 8, n_kv_heads: int = 2, head_dim: int = 64,
              block_size: int = 256, prefill_tile: int = 4096,
              max_reference_context: int = 16384, seed: int = 0,
              out_dir: Optional[pathlib.Path] = None) -> Table:
    """Run the microbenchmark; returns the table and writes the JSON."""
    contexts = sorted(set(int(c) for c in contexts))
    mc = bench_model_config(n_q_heads, n_kv_heads, head_dim)
    if threshold is None:
        threshold = head_dim // 2
    cfg = LongSightConfig(window=window, n_sink=n_sink, top_k=top_k,
                          thresholds=threshold)
    rng = np.random.default_rng(seed)
    kv_dtype = np.dtype(mc.kv_dtype)

    series: Dict[str, Dict[str, List[Optional[float]]]] = {
        name: {"decode_s": [], "prefill_s": []} for name in BACKENDS}
    for n_ctx in contexts:
        k = rng.normal(size=(n_kv_heads, n_ctx, head_dim)).astype(kv_dtype)
        v = rng.normal(size=(n_kv_heads, n_ctx, head_dim)).astype(kv_dtype)
        q_full = rng.normal(size=(n_q_heads, n_ctx, head_dim))
        q_last = q_full[:, -1:, :]
        for name, fn in _decode_runners(mc, cfg, k, v, q_last,
                                        prefill_tile).items():
            series[name]["decode_s"].append(_time_best(fn, repeats))
        prefill = _prefill_runners(mc, cfg, k, v, q_full, block_size,
                                   prefill_tile)
        for name, fn in prefill.items():
            if name in QUADRATIC_PREFILL and n_ctx > max_reference_context:
                series[name]["prefill_s"].append(None)
            else:
                series[name]["prefill_s"].append(_time_best(fn, repeats))

    def _ratio(ref: Optional[float], t: Optional[float]) -> Optional[float]:
        if ref is None or t is None:
            return None
        return ref / max(t, 1e-12)

    speedup = {
        phase: {
            name: [_ratio(ref, t) for ref, t in
                   zip(series["hybrid_reference"][f"{phase}_s"],
                       series[name][f"{phase}_s"])]
            for name in BACKENDS if name != "hybrid_reference"
        }
        for phase in ("decode", "prefill")
    }

    payload = {
        "benchmark": "attention_micro",
        "schema_version": SCHEMA_VERSION,
        "units": {"context": "tokens", "decode_s": "seconds per decode step",
                  "prefill_s": "seconds per full prefill (null = skipped, "
                               "quadratic backend above the reference cap)",
                  "speedup": "reference_time / backend_time"},
        "model": {"n_q_heads": n_q_heads, "n_kv_heads": n_kv_heads,
                  "head_dim": head_dim, "kv_dtype": mc.kv_dtype},
        "config": {"window": window, "n_sink": n_sink, "top_k": top_k,
                   "threshold": threshold, "block_size": block_size,
                   "prefill_tile": prefill_tile,
                   "max_reference_context": max_reference_context,
                   "repeats": repeats},
        "contexts": contexts,
        "backends": series,
        "speedup": speedup,
    }
    out_dir = pathlib.Path(out_dir) if out_dir is not None else results_dir()
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / RESULT_NAME).write_text(json.dumps(payload, indent=2) + "\n")

    def _ms(value: Optional[float]) -> Optional[float]:
        return None if value is None else value * 1e3

    table = Table(
        "attention microbenchmark (decode one token / prefill full context)",
        ["context", "ref_decode_ms", "fast_decode_ms", "decode_speedup",
         "ref_prefill_ms", "tiled_prefill_ms", "tiled_speedup"],
        note=f"best of {repeats}; window={window} top_k={top_k} "
             f"threshold={threshold} heads={n_q_heads}/{n_kv_heads} "
             f"d={head_dim} tile={prefill_tile}")
    for i, n_ctx in enumerate(contexts):
        table.add_row(
            context=n_ctx,
            ref_decode_ms=_ms(series["hybrid_reference"]["decode_s"][i]),
            fast_decode_ms=_ms(series["hybrid_fast"]["decode_s"][i]),
            decode_speedup=speedup["decode"]["hybrid_fast"][i],
            ref_prefill_ms=_ms(series["hybrid_reference"]["prefill_s"][i]),
            tiled_prefill_ms=_ms(series["hybrid_tiled"]["prefill_s"][i]),
            tiled_speedup=speedup["prefill"]["hybrid_tiled"][i],
        )
    return table


def validate_payload(payload: dict) -> List[str]:
    """Schema check used by the smoke test; returns a list of problems."""
    problems = []
    for key in ("benchmark", "schema_version", "units", "model", "config",
                "contexts", "backends", "speedup"):
        if key not in payload:
            problems.append(f"missing key: {key}")
    if problems:
        return problems
    if payload["schema_version"] != SCHEMA_VERSION:
        problems.append(f"schema_version != {SCHEMA_VERSION}")
    contexts = payload["contexts"]
    if any(b >= a for a, b in zip(contexts[1:], contexts)):
        problems.append("contexts axis is not strictly increasing")
    for unit_key in ("context", "decode_s", "prefill_s", "speedup"):
        if unit_key not in payload["units"]:
            problems.append(f"missing unit: {unit_key}")
    for name in BACKENDS:
        backend = payload["backends"].get(name)
        if backend is None:
            problems.append(f"missing backend series: {name}")
            continue
        decode = backend.get("decode_s")
        if decode is None or len(decode) != len(contexts):
            problems.append(f"{name}.decode_s length != len(contexts)")
        elif any(t is None or t <= 0 for t in decode):
            problems.append(f"{name}.decode_s has missing/non-positive times")
        prefill = backend.get("prefill_s")
        if prefill is None or len(prefill) != len(contexts):
            problems.append(f"{name}.prefill_s length != len(contexts)")
        else:
            if any(t is not None and t <= 0 for t in prefill):
                problems.append(f"{name}.prefill_s has non-positive times")
            if name not in QUADRATIC_PREFILL and any(
                    t is None for t in prefill):
                problems.append(f"{name}.prefill_s has null entries but is "
                                "not a capped quadratic backend")
    for phase in ("decode", "prefill"):
        curves = payload["speedup"].get(phase)
        if not isinstance(curves, dict):
            problems.append(f"speedup.{phase} is not a per-backend mapping")
            continue
        for name in BACKENDS:
            if name == "hybrid_reference":
                continue
            values = curves.get(name)
            if values is None or len(values) != len(contexts):
                problems.append(
                    f"speedup.{phase}.{name} length != len(contexts)")
            elif phase == "decode" and any(v is None for v in values):
                problems.append(f"speedup.decode.{name} has null entries")
    return problems


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.bench.micro",
        description="Attention prefill/decode microbenchmark "
                    "(sliding-window vs hybrid reference/fast/tiled).")
    parser.add_argument("--contexts", type=int, nargs="+",
                        default=[512, 1024, 2048, 4096])
    parser.add_argument("--repeats", type=int, default=5)
    parser.add_argument("--window", type=int, default=128)
    parser.add_argument("--n-sink", type=int, default=16)
    parser.add_argument("--top-k", type=int, default=128)
    parser.add_argument("--threshold", type=float, default=None)
    parser.add_argument("--n-q-heads", type=int, default=8)
    parser.add_argument("--n-kv-heads", type=int, default=2)
    parser.add_argument("--head-dim", type=int, default=64)
    parser.add_argument("--block-size", type=int, default=256)
    parser.add_argument("--prefill-tile", type=int, default=4096,
                        help="key-tile length of the hybrid_tiled prefill "
                             "series")
    parser.add_argument("--max-reference-context", type=int, default=16384,
                        help="largest context at which the untiled "
                             "prefill series (reference, hybrid_fast at "
                             "tile 0) are still measured; null beyond")
    parser.add_argument("--out-dir", type=pathlib.Path, default=None,
                        help="directory for BENCH_attention.json "
                             "(default: results/)")
    args = parser.parse_args(argv)
    table = run_micro(
        contexts=args.contexts, repeats=args.repeats, window=args.window,
        n_sink=args.n_sink, top_k=args.top_k, threshold=args.threshold,
        n_q_heads=args.n_q_heads, n_kv_heads=args.n_kv_heads,
        head_dim=args.head_dim, block_size=args.block_size,
        prefill_tile=args.prefill_tile,
        max_reference_context=args.max_reference_context,
        out_dir=args.out_dir)
    print(table.render())
    out_dir = args.out_dir if args.out_dir is not None else results_dir()
    print(f"[saved to {pathlib.Path(out_dir) / RESULT_NAME}]")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
