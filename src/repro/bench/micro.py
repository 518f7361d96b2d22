"""Attention microbenchmark CLI (``python -m repro.bench.micro``).

Times prefill and decode for three attention backends across context
lengths:

- ``sliding_window`` — the StreamingLLM-style baseline (O(window)/query),
- ``hybrid_reference`` — the per-head reference loop
  (:class:`~repro.core.reference.ReferenceAttention`),
- ``hybrid`` — :class:`LongSightAttention` consuming the KV cache's
  incremental sign store.  The kernel sizes its own key tile
  (``repro.core.hybrid``'s tile rule): a prefill block streams bounded
  column tiles, a decode row filters its whole span in one pass.

The reference loop's prefill working set grows with the context, so it is
only measured up to ``--max-reference-context``; beyond it its entries
are ``null`` — a 256k reference prefill would take hours and teach
nothing.  Decode is cheap for every backend, so decode series are always
complete, which keeps the long-context decode speedup (the paper's
headline number) directly measurable at every point of the curve.

Results are written as ``BENCH_attention.json`` (default: ``results/``) so
later performance work has a trajectory to regress against.  Schema v4
(v3 with the hybrid kernel's two series — one per setting of the removed
key-tile option — merged into ``hybrid``, that option's config entry
gone, and medians with their spread in place of best-of):

- ``contexts`` is a strictly increasing token-count axis (sorted and
  deduplicated on the way in),
- every backend series has one entry per context (prefill entries are
  ``null`` above the reference cap), and beside each time series its
  ``*_iqr_s`` spread,
- ``speedup.decode`` / ``speedup.prefill`` hold per-backend
  reference-time / backend-time curves (``null`` where either side was
  not measured),
- all times are seconds: the median of ``--repeats`` runs, and the
  interquartile range of those runs (0.0 for a single run).

Every number in it is a timing (:data:`WALL_CLOCK`) and none is a
verdict, so the payload carries no ``claims``;
``tests/bench/test_artifacts.py`` holds a smoke-size run to the
committed artifact's key paths and leaf types.
"""

from __future__ import annotations

import argparse
import pathlib
import time
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.bench.tables import Table, run_cli, write_payload
from repro.core.config import LongSightConfig
from repro.core.hybrid import LongSightAttention, SlidingWindowAttention
from repro.core.reference import ReferenceAttention
from repro.llm.config import ModelConfig
from repro.llm.kv_cache import KVCache

SCHEMA_VERSION = 4
RESULT_NAME = "BENCH_attention.json"
WALL_CLOCK = ("backends", "speedup")
BACKENDS = ("sliding_window", "hybrid_reference", "hybrid")
#: Backends whose *prefill* temporaries are ``(n_queries, n_ctx)`` wide;
#: their prefill series stop at ``max_reference_context``.
QUADRATIC_PREFILL = ("hybrid_reference",)
PHASES = ("decode", "prefill")


def bench_model_config(n_q_heads: int = 8, n_kv_heads: int = 2,
                       head_dim: int = 64) -> ModelConfig:
    """A single-layer attention-only stand-in (weights are never run)."""
    return ModelConfig(name="bench-attn", vocab_size=256, n_layers=1,
                       n_q_heads=n_q_heads, n_kv_heads=n_kv_heads,
                       head_dim=head_dim, d_ff=4 * n_q_heads * head_dim)


def _time_median(fn: Callable[[], object],
                 repeats: int) -> Tuple[float, float]:
    """``(median, interquartile range)`` of ``repeats`` timed calls."""
    times = []
    for _ in range(max(1, repeats)):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    q1, median, q3 = np.percentile(times, [25, 50, 75])
    return float(median), float(q3 - q1)


def _backend_stack(cfg: LongSightConfig) -> Dict[str, object]:
    """Fresh backend instances, one per benchmarked series."""
    return {
        "sliding_window": SlidingWindowAttention(window=cfg.window,
                                                 n_sink=cfg.n_sink),
        "hybrid_reference": ReferenceAttention(cfg),
        "hybrid": LongSightAttention(cfg),
    }


def _decode_runners(mc: ModelConfig, cfg: LongSightConfig, k: np.ndarray,
                    v: np.ndarray, q: np.ndarray) -> Dict[str, Callable]:
    """One-token decode at full context, per backend.

    Cache-consuming backends get a pre-populated cache with their packed
    sign store already built, mirroring steady-state decode where appends
    maintain it token by token.
    """
    stack = _backend_stack(cfg)
    cache = KVCache(mc)
    stack["hybrid"].prepare_cache(cache)
    cache.append(0, k, v)
    return {
        "sliding_window": lambda: stack["sliding_window"].forward(0, q, k, v),
        "hybrid_reference":
            lambda: stack["hybrid_reference"].forward(0, q, k, v),
        "hybrid": lambda: stack["hybrid"].forward_cached(0, q, cache),
    }


def _prefill_runners(mc: ModelConfig, cfg: LongSightConfig, k: np.ndarray,
                     v: np.ndarray, q_full: np.ndarray,
                     block_size: int) -> Dict[str, Callable]:
    """Blockwise prefill over the whole context, per backend."""
    n_ctx = k.shape[1]
    stack = _backend_stack(cfg)

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
        "hybrid": run_cached(stack["hybrid"]),
    }


def run_micro(contexts: Sequence[int] = (512, 1024, 2048, 4096),
              repeats: int = 5, window: int = 128, n_sink: int = 16,
              top_k: int = 128, threshold: Optional[float] = None,
              n_q_heads: int = 8, n_kv_heads: int = 2, head_dim: int = 64,
              block_size: int = 256, max_reference_context: int = 16384,
              seed: int = 0,
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
        name: {f"{phase}{suffix}": [] for phase in PHASES
               for suffix in ("_s", "_iqr_s")} for name in BACKENDS}

    def record(name: str, phase: str, fn: Optional[Callable]) -> None:
        median, iqr = _time_median(fn, repeats) if fn else (None, None)
        series[name][f"{phase}_s"].append(median)
        series[name][f"{phase}_iqr_s"].append(iqr)

    for n_ctx in contexts:
        k = rng.normal(size=(n_kv_heads, n_ctx, head_dim)).astype(kv_dtype)
        v = rng.normal(size=(n_kv_heads, n_ctx, head_dim)).astype(kv_dtype)
        q_full = rng.normal(size=(n_q_heads, n_ctx, head_dim))
        q_last = q_full[:, -1:, :]
        for name, fn in _decode_runners(mc, cfg, k, v, q_last).items():
            record(name, "decode", fn)
        for name, fn in _prefill_runners(mc, cfg, k, v, q_full,
                                         block_size).items():
            capped = (name in QUADRATIC_PREFILL
                      and n_ctx > max_reference_context)
            record(name, "prefill", None if capped else fn)

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
        for phase in PHASES
    }

    payload = {
        "benchmark": "attention_micro",
        "schema_version": SCHEMA_VERSION,
        "units": {"context": "tokens",
                  "decode_s": "seconds per decode step, median of repeats",
                  "decode_iqr_s": "interquartile range of the decode_s runs",
                  "prefill_s": "seconds per full prefill, median of repeats "
                               "(null = skipped, quadratic backend above "
                               "the reference cap)",
                  "prefill_iqr_s": "interquartile range of the prefill_s "
                                   "runs",
                  "speedup": "reference_time / backend_time (medians)"},
        "model": {"n_q_heads": n_q_heads, "n_kv_heads": n_kv_heads,
                  "head_dim": head_dim, "kv_dtype": mc.kv_dtype},
        "config": {"window": window, "n_sink": n_sink, "top_k": top_k,
                   "threshold": threshold, "block_size": block_size,
                   "max_reference_context": max_reference_context,
                   "repeats": repeats},
        "contexts": contexts,
        "backends": series,
        "speedup": speedup,
    }
    write_payload(payload, RESULT_NAME, out_dir)

    def _ms(value: Optional[float]) -> Optional[float]:
        return None if value is None else value * 1e3

    table = Table(
        "attention microbenchmark (decode one token / prefill full context)",
        ["context", "ref_decode_ms", "hybrid_decode_ms", "decode_speedup",
         "ref_prefill_ms", "hybrid_prefill_ms", "prefill_speedup"],
        note=f"median of {repeats}; window={window} top_k={top_k} "
             f"threshold={threshold} heads={n_q_heads}/{n_kv_heads} "
             f"d={head_dim}")
    for i, n_ctx in enumerate(contexts):
        table.add_row(
            context=n_ctx,
            ref_decode_ms=_ms(series["hybrid_reference"]["decode_s"][i]),
            hybrid_decode_ms=_ms(series["hybrid"]["decode_s"][i]),
            decode_speedup=speedup["decode"]["hybrid"][i],
            ref_prefill_ms=_ms(series["hybrid_reference"]["prefill_s"][i]),
            hybrid_prefill_ms=_ms(series["hybrid"]["prefill_s"][i]),
            prefill_speedup=speedup["prefill"]["hybrid"][i],
        )
    return table


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.bench.micro",
        description="Attention prefill/decode microbenchmark "
                    "(sliding-window vs hybrid reference vs hybrid).")
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
    parser.add_argument("--max-reference-context", type=int, default=16384,
                        help="largest context at which the reference "
                             "prefill series is still measured; null "
                             "beyond")
    return run_cli(parser, argv, run_micro, RESULT_NAME)


if __name__ == "__main__":
    raise SystemExit(main())
