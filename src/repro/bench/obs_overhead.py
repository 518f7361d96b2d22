"""Instrumentation-overhead benchmark (``python -m repro.bench.obs_overhead``).

The observability layer is meant to stay on by default, so its cost must
be provably negligible.  This benchmark times two things separately:

- ``baseline``: a decode microloop — a tiny seeded transformer really
  decoding tokens — with no instrumentation calls in it at all;
- the *hooks*: the spans/counters/gauges/histograms one ``ServeEngine``
  step records, called once per step in a loop of their own, against a
  **disabled** registry and tracer (``noop``) and against an enabled pair
  (``enabled``).

``noop_s`` / ``enabled_s`` are the baseline plus the hooks' seconds, and
the headline number ``noop_overhead_frac`` — the relative cost of leaving
the hooks in when observability is off, which
``tests/obs/test_overhead.py`` pins below 5% — is hook seconds over
baseline seconds.  Timing the hooks in isolation is what makes the gate
repeatable: the hooks cost about a microsecond per step, and the
difference of two whole decode loops (how this was measured before)
drifts by several percent of a loop from run to run on a shared host, more
than the 5% it gates.  Results are written as schema-checked
``BENCH_obs.json``.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import time
from typing import List, Optional

import numpy as np

from repro.bench.tables import Table, results_dir
from repro.core.config import LongSightConfig
from repro.core.hybrid import LongSightAttention
from repro.llm.config import ModelConfig
from repro.llm.kv_cache import KVCache
from repro.llm.model import Transformer
from repro.obs import NULL_OBS, MetricsRegistry, Obs, Tracer

SCHEMA_VERSION = 1
RESULT_NAME = "BENCH_obs.json"

#: Same tiny functional model the serve bench decodes with.
TINY_MODEL = ModelConfig(name="obs-tiny", vocab_size=64, n_layers=2,
                         n_q_heads=4, n_kv_heads=2, head_dim=8, d_ff=32,
                         qk_bias=True)
TINY_LS = LongSightConfig(window=8, n_sink=4, top_k=12, thresholds=3)


def _microloop(model: Transformer, prompt: np.ndarray, steps: int) -> float:
    """Decode ``steps`` tokens uninstrumented; returns loop seconds.

    Prefill is excluded.  The attention backend is pinned to ``NULL_OBS``
    so the loop holds no instrumentation of its own.
    """
    backend = LongSightAttention(TINY_LS, obs=NULL_OBS)
    cache = KVCache(model.config)
    logits = model.prefill(prompt, cache, backend=backend)
    token = int(np.argmax(logits))
    start = time.perf_counter()
    for _ in range(steps):
        logits = model.decode_step(token, cache, backend=backend)
        token = int(np.argmax(logits))
    return time.perf_counter() - start


def _hook_loop(steps: int, obs: Obs) -> float:
    """Seconds spent in ``steps`` engine steps' worth of hook calls alone.

    Each iteration makes the instrumentation calls one engine step makes —
    two nested spans, four counters/gauges, two histogram observations —
    against the given bundle, around no work.
    """
    metrics, tracer = obs.metrics, obs.tracer
    start = time.perf_counter()
    for step in range(steps):
        with tracer.span("engine.step"):
            with tracer.span("decode_batch", batch=1):
                pass
            metrics.counter("loop.steps").inc()
            metrics.counter("loop.tokens").inc()
            metrics.gauge("loop.queue_depth").set(0)
            metrics.gauge("loop.context").set(step)
            metrics.histogram("loop.decode_batch").observe(1.0)
            metrics.histogram("loop.step_s").observe(1e-4)
    return time.perf_counter() - start


def _measure(model: Transformer, prompt: np.ndarray, steps: int,
             reps: int) -> dict:
    """Best-of-``reps`` seconds: the baseline loop and each hook loop."""
    times = {"baseline": [], "noop": [], "enabled": []}
    for _ in range(reps):
        times["baseline"].append(_microloop(model, prompt, steps))
        times["noop"].append(_hook_loop(steps, NULL_OBS))
        enabled = Obs(MetricsRegistry(enabled=True), Tracer(enabled=True))
        times["enabled"].append(_hook_loop(steps, enabled))
    best = {mode: min(values) for mode, values in times.items()}
    return {"baseline": best["baseline"],
            "noop": best["baseline"] + best["noop"],
            "enabled": best["baseline"] + best["enabled"]}


def run_obs_overhead(steps: int = 512, reps: int = 3, seed: int = 0,
                     prompt_tokens: int = 24,
                     out_dir: Optional[pathlib.Path] = None) -> Table:
    """Run the overhead measurement; returns the table, writes the JSON."""
    if steps < 1 or reps < 1:
        raise ValueError("steps and reps must be >= 1")
    model = Transformer(TINY_MODEL, seed=seed)
    rng = np.random.default_rng(seed)
    prompt = rng.integers(0, TINY_MODEL.vocab_size, size=prompt_tokens)
    _microloop(model, prompt, min(steps, 32))   # warm numpy/caches
    best = _measure(model, prompt, steps, reps)

    baseline = best["baseline"]
    results = {
        "baseline_s": baseline,
        "noop_s": best["noop"],
        "enabled_s": best["enabled"],
        "noop_overhead_frac": (best["noop"] - baseline) / baseline,
        "enabled_overhead_frac": (best["enabled"] - baseline) / baseline,
        "baseline_step_us": baseline / steps * 1e6,
    }
    payload = {
        "benchmark": "obs_overhead",
        "schema_version": SCHEMA_VERSION,
        "units": {"*_s": "baseline: best-of-reps decode loop seconds "
                         "(prefill excluded); noop/enabled: baseline plus "
                         "the best-of-reps seconds of that mode's per-step "
                         "hook calls timed in a loop of their own",
                  "*_overhead_frac": "(mode - baseline) / baseline",
                  "baseline_step_us": "microseconds per decode step"},
        "config": {"steps": steps, "reps": reps, "seed": seed,
                   "prompt_tokens": prompt_tokens,
                   "model": TINY_MODEL.name},
        "results": results,
    }
    out_dir = pathlib.Path(out_dir) if out_dir is not None else results_dir()
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / RESULT_NAME).write_text(json.dumps(payload, indent=2) + "\n")

    table = Table(
        "instrumentation overhead (decode microloop, best of "
        f"{reps} reps x {steps} steps)",
        ["mode", "loop_s", "step_us", "overhead_pct"],
        note="noop must stay < 5% so instrumentation ships on by default")
    for mode in ("baseline", "noop", "enabled"):
        table.add_row(
            mode=mode,
            loop_s=best[mode],
            step_us=best[mode] / steps * 1e6,
            overhead_pct=(best[mode] - baseline) / baseline * 100.0)
    return table


def validate_payload(payload: dict) -> List[str]:
    """Schema check used by the smoke tests; returns a list of problems."""
    problems = []
    for key in ("benchmark", "schema_version", "units", "config", "results"):
        if key not in payload:
            problems.append(f"missing key: {key}")
    if problems:
        return problems
    if payload["benchmark"] != "obs_overhead":
        problems.append("benchmark name mismatch")
    config = payload["config"]
    if not isinstance(config.get("steps"), int) or config["steps"] < 1:
        problems.append("config.steps must be a positive int")
    results = payload["results"]
    for key in ("baseline_s", "noop_s", "enabled_s"):
        if not isinstance(results.get(key), (int, float)) \
                or results[key] <= 0:
            problems.append(f"results.{key} must be a positive number")
    for key in ("noop_overhead_frac", "enabled_overhead_frac"):
        if not isinstance(results.get(key), (int, float)):
            problems.append(f"results.{key} must be a number")
    # Timer noise can make an overhead slightly negative; a large negative
    # value means the measurement itself is broken.
    if isinstance(results.get("noop_overhead_frac"), (int, float)) \
            and results["noop_overhead_frac"] < -0.5:
        problems.append("noop_overhead_frac is implausibly negative")
    return problems


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.bench.obs_overhead",
        description="Measure observability overhead on a decode microloop "
                    "(baseline vs no-op vs enabled instrumentation).")
    parser.add_argument("--steps", type=int, default=512)
    parser.add_argument("--reps", type=int, default=3)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--prompt-tokens", type=int, default=24)
    parser.add_argument("--out-dir", type=pathlib.Path, default=None,
                        help=f"directory for {RESULT_NAME} "
                             "(default: results/)")
    args = parser.parse_args(argv)
    table = run_obs_overhead(steps=args.steps, reps=args.reps,
                             seed=args.seed,
                             prompt_tokens=args.prompt_tokens,
                             out_dir=args.out_dir)
    print(table.render())
    out_dir = args.out_dir if args.out_dir is not None else results_dir()
    print(f"[saved to {pathlib.Path(out_dir) / RESULT_NAME}]")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
