"""Figure 3: non-window KV cache filter ratios across context lengths.

Three panels: (a) baseline sparse attention, (b) hybrid (sparse + dense
sliding window), (c) ITQ-enhanced hybrid.  For every (model, dataset,
context, k) the harness reports the filter ratio achieved with thresholds
tuned for <=5% perplexity increase; configurations that cannot reach the
perplexity target even unfiltered are marked 'X', as in the paper.

Kept unreached: ``*`` — entered only by the five training benchmarks the
audit skips.
"""

from __future__ import annotations

from typing import Iterable, Optional

from repro.bench import algo
from repro.bench.tables import Table

#: k values per panel (paper: 128 and 1024, scaled by algo.SCALE).
PANEL_KS = (algo.TOP_K_SMALL, algo.TOP_K_LARGE)

VARIANT_BY_PANEL = {"a": "sparse", "b": "hybrid", "c": "hybrid+itq"}


def run_fig3(panel: str, models: Iterable[str] = ("llama-3-1b", "llama-3-8b"),
             datasets: Iterable[str] = ("PG", "Wiki2"),
             contexts: Optional[Iterable[int]] = None,
             max_increase: float = 0.05) -> Table:
    """Regenerate one panel of Figure 3.

    Args:
        panel: 'a' (baseline sparse), 'b' (hybrid), or 'c' (hybrid + ITQ).
        max_increase: the perplexity budget (paper: within 5% of dense).
    """
    variant = VARIANT_BY_PANEL[panel]
    contexts = list(contexts) if contexts is not None else algo.bench_contexts()
    table = Table(
        f"Figure 3{panel}: filter ratio ({variant})",
        ["model", "dataset", "context", "k", "filter_ratio",
         "ppl_increase_pct", "meets_target"],
        note=(f"k and window scaled by 1/{algo.SCALE} with context "
              f"(paper: k=128/1024, W=1024 at 32K-1M ctx); "
              f"'X' = cannot stay within {max_increase:.0%} of dense ppl."))
    for model in models:
        for k in PANEL_KS:
            thresholds = algo.tuned_thresholds(model, variant, k,
                                               max_increase=max_increase)
            config = algo.variant_config(variant, k, thresholds=thresholds)
            for dataset in datasets:
                for context in contexts:
                    tokens = algo.get_tokens(dataset, context)
                    dense = algo.dense_perplexity(model, dataset, context)
                    ppl, stats = algo.evaluate_config(model, tokens, config)
                    increase = ppl / dense - 1.0
                    ok = increase <= max_increase
                    table.add_row(
                        model=model, dataset=dataset, context=context, k=k,
                        filter_ratio=stats.filter_ratio if ok else None,
                        ppl_increase_pct=increase * 100.0,
                        meets_target="yes" if ok else "X")
    return table
