#!/usr/bin/env python
"""Threshold auto-tuning walkthrough (Section 8.1.3).

Starts from thresholds that filter nothing and greedily raises the
threshold of the (layer, KV head) with the lowest filter ratio until the
perplexity budget is spent, printing the quality/filter-ratio trajectory.

Run:
    python examples/tune_thresholds.py --budget 0.05 --context 2048
"""

import argparse

import numpy as np

from repro.bench import algo
from repro.core import LongSightConfig, fit_itq
from repro.core.tuning import threshold_step, tune_thresholds
from repro.data.synthetic import pg_like
from repro.llm.perplexity import perplexity
from repro.llm.zoo import trained_model


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--model", default="llama-sim-small")
    parser.add_argument("--steps", type=int, default=None,
                        help="override training steps (default: full recipe)")
    parser.add_argument("--context", type=int, default=2048)
    parser.add_argument("--budget", type=float, default=0.05,
                        help="max relative perplexity increase")
    parser.add_argument("--iterations", type=int, default=12)
    parser.add_argument("--no-itq", action="store_true")
    args = parser.parse_args()

    model = trained_model(args.model, steps=args.steps)
    tokens = pg_like(args.context, seed=3)
    dense_ppl = perplexity(model, tokens)
    print(f"dense perplexity: {dense_ppl:.3f} "
          f"(budget: +{args.budget:.0%} -> {dense_ppl * (1 + args.budget):.3f})")

    rotations = None
    config = LongSightConfig(window=algo.WINDOW, n_sink=algo.N_SINK,
                             top_k=algo.TOP_K_LARGE, use_itq=not args.no_itq)
    if config.use_itq:
        print("fitting ITQ rotations...")
        rotations = fit_itq(model, pg_like(1024, seed=11))

    print(f"tuning thresholds (step = head_dim/8 = "
          f"{threshold_step(model.config.head_dim)} bits)...\n")
    result = tune_thresholds(model, tokens, config, dense_ppl,
                             max_increase=args.budget,
                             max_iterations=args.iterations,
                             rotations=rotations)
    print(f"{'iter':>4} {'perplexity':>10} {'increase':>9} {'filter ratio':>12}")
    for i, (ppl, ratio) in enumerate(result.history, start=1):
        marker = " <- accepted" if ppl / dense_ppl - 1 <= args.budget else \
            " <- over budget (reverted)"
        print(f"{i:>4} {ppl:>10.3f} {(ppl / dense_ppl - 1) * 100:>8.2f}% "
              f"{ratio:>11.2f}x{marker}")
    print(f"\nfinal thresholds (layers x KV heads):\n{result.thresholds}")
    print(f"final: perplexity {result.perplexity:.3f}, "
          f"filter ratio {result.filter_ratio:.2f}x, "
          f"sparsity {(1 - 1 / result.filter_ratio) * 100:.1f}%")


if __name__ == "__main__":
    main()
