"""Figure 4: accuracy vs filter-ratio Pareto frontiers at 32K context.

The paper sweeps (window, k, thresholds) for the hybrid ITQ-enhanced
algorithm at a 32K context, plotting inverse-perplexity accuracy relative
to dense against the overall filter ratio, with three example
configurations highlighted plus the all-configs frontier.

Scaled here to the miniatures' 4K context (= 32K / SCALE); axes are
identical in meaning.

Kept unreached: ``*`` — entered only by the five training benchmarks the
audit skips.
"""

from __future__ import annotations

from typing import List, Optional

from repro.bench import algo
from repro.bench.tables import Table
from repro.core.config import LongSightConfig
from repro.system.sweep import ParetoPoint, pareto_frontier

#: The paper highlights three example configurations; these are their
#: scaled analogues (window, k).
EXAMPLE_CONFIGS = [
    ("W=1024,k=1024", algo.WINDOW, algo.TOP_K_LARGE),
    ("W=1024,k=128", algo.WINDOW, algo.TOP_K_SMALL),
    ("W=256,k=1024", max(1, algo.WINDOW // 4), algo.TOP_K_LARGE),
]


def sweep_points(paper_name: str, dataset: str = "PG",
                 context: int = 4096,
                 windows: Optional[List[int]] = None,
                 ks: Optional[List[int]] = None,
                 thresholds: Optional[List[int]] = None) -> List[ParetoPoint]:
    """Evaluate the (W, k, TH) grid; returns accuracy/filter-ratio points."""
    model = algo.get_model(paper_name)
    d = model.config.head_dim
    windows = windows or [max(1, algo.WINDOW // 4), algo.WINDOW,
                          algo.WINDOW * 4]
    ks = ks or [algo.TOP_K_SMALL, algo.TOP_K_LARGE]
    thresholds = thresholds or [0, d // 2, d // 2 + d // 8,
                                d // 2 + d // 4, d // 2 + 3 * d // 8]
    tokens = algo.get_tokens(dataset, context)
    dense = algo.dense_perplexity(paper_name, dataset, context)
    points: List[ParetoPoint] = []
    for window in windows:
        for k in ks:
            for th in thresholds:
                config = LongSightConfig(window=window, n_sink=algo.N_SINK,
                                         top_k=k, thresholds=th,
                                         use_itq=True)
                ppl, stats = algo.evaluate_config(paper_name, tokens, config)
                points.append(ParetoPoint(
                    x=stats.filter_ratio,
                    y=dense / ppl,  # inverse-perplexity accuracy vs dense
                    label=f"W={window},k={k},TH={th}",
                    config={"window": window, "k": k, "threshold": th},
                ))
    return points


def run_fig4(paper_name: str = "llama-3-1b", dataset: str = "PG",
             context: int = 2048) -> Table:
    """Regenerate Figure 4 for one model/dataset."""
    points = sweep_points(paper_name, dataset, context)
    frontier = pareto_frontier(points)
    frontier_labels = {p.label for p in frontier}
    examples = {(window, k): name for name, window, k in EXAMPLE_CONFIGS}
    table = Table(
        f"Figure 4: accuracy vs filter ratio ({paper_name}, {dataset}, "
        f"ctx={context})",
        ["config", "filter_ratio", "accuracy_vs_dense", "on_frontier",
         "example"],
        note="accuracy = dense_ppl / ppl (1.0 = matches dense); "
             "frontier = non-dominated across all configs tested; "
             "'example' marks the paper's three highlighted configs "
             "(paper-scale names, parameters scaled 1/8).")
    for point in sorted(points, key=lambda p: p.x):
        example = examples.get((point.config["window"], point.config["k"]),
                               "")
        table.add_row(config=point.label, filter_ratio=point.x,
                      accuracy_vs_dense=point.y,
                      on_frontier="yes" if point.label in frontier_labels
                      else "",
                      example=example)
    return table
