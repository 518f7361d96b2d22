"""Ablation: threshold granularity (Section 5.1's design decision).

The paper: "fine-grained thresholding (i.e., setting a threshold for each
Q head) has the potential to be more expressive ... Nonetheless, we found
that assigning a threshold to each Q query head introduced instability in
our threshold tuning algorithm.  Instead, we assign a threshold to each
KV head."

We run the same greedy tuner at both granularities on the trained
miniature and compare trajectories: accepted iterations before the budget
is blown, final filter ratio, and perplexity oscillation along the way.
"""

import numpy as np

from benchmarks.conftest import run_once

from repro.bench import algo
from repro.bench.tables import Table
from repro.core.tuning import tune_thresholds
from repro.llm.perplexity import perplexity


def test_ablation_threshold_granularity(benchmark, report):
    def run():
        model = algo.get_model("llama-3-1b")
        tokens = algo.get_tokens("PG", 2048)
        dense = perplexity(model, tokens)
        config = algo.variant_config("hybrid+itq", algo.TOP_K_LARGE)
        rotations = algo.get_rotations("llama-3-1b")
        table = Table(
            "Ablation: SCF threshold granularity (llama-3-1b stand-in)",
            ["granularity", "iterations", "final_filter_ratio",
             "final_ppl_increase_pct", "ppl_oscillation",
             "thresholds_tuned"])
        for granularity in ("kv_head", "q_head"):
            result = tune_thresholds(
                model, tokens, config, dense, max_increase=0.05,
                max_iterations=16, rotations=rotations,
                granularity=granularity)
            ppls = np.array([p for p, _ in result.history])
            oscillation = float(np.abs(np.diff(ppls)).mean()) if \
                len(ppls) > 1 else 0.0
            table.add_row(
                granularity=granularity,
                iterations=result.iterations,
                final_filter_ratio=result.filter_ratio,
                final_ppl_increase_pct=(result.perplexity / dense - 1) * 100,
                ppl_oscillation=oscillation,
                thresholds_tuned=int((result.thresholds > 0).sum()))
        return table

    table = run_once(benchmark, run)
    report(table)
    assert len(table.rows) == 2
    for row in table.rows:
        assert row["final_ppl_increase_pct"] <= 5.0 + 1e-6
