"""Figure 10: accuracy vs normalized throughput Pareto frontiers at 32K.

LongSight vs sliding-window attention, both tuned for one context length.
Accuracy comes from the miniature models (scaled parameters); throughput
comes from the analytical perf model at paper dimensions with the
corresponding *unscaled* parameters, normalized to the 1-GPU dense system
at the same context — so the x-axis reads "x over dense attention".
"""

from __future__ import annotations

import os
from typing import List

from repro.bench import algo
from repro.bench.fig7 import best_point
from repro.bench.tables import Table
from repro.core.config import LongSightConfig
from repro.core.hybrid import SlidingWindowAttention
from repro.llm.config import PAPER_MODELS
from repro.llm.perplexity import perplexity
from repro.system.baselines import DenseGpuSystem, SlidingWindowGpuSystem
from repro.system.engine import LongSightSystem
from repro.system.sweep import ParetoPoint, pareto_frontier

#: Paper context for this figure; miniatures run at context / SCALE.
#: The default drops one octave (16K) to keep single-core runtimes sane;
#: REPRO_BENCH_FULL=1 restores the paper's 32K.
PAPER_CONTEXT = 32768 if os.environ.get("REPRO_BENCH_FULL") else 16384


def _dense_tput(config, context: int) -> float:
    system = DenseGpuSystem(1)
    point = best_point(system, config, context)
    return point.throughput_tps if point else float("nan")


def longsight_points(paper_name: str, dataset: str = "PG") -> List[ParetoPoint]:
    """LongSight configs: sweep (W, k, TH); accuracy mini, throughput full."""
    mini_ctx = PAPER_CONTEXT // algo.SCALE
    model = algo.get_model(paper_name)
    d = model.config.head_dim
    tokens = algo.get_tokens(dataset, mini_ctx)
    dense_ppl = algo.dense_perplexity(paper_name, dataset, mini_ctx)
    paper_config = PAPER_MODELS[paper_name]
    dense_tput = _dense_tput(paper_config, PAPER_CONTEXT)
    points = []
    for window in (algo.WINDOW // 4, algo.WINDOW):
        for k in (algo.TOP_K_SMALL, algo.TOP_K_LARGE):
            for th in (d // 2, d // 2 + d // 8, d // 2 + d // 4):
                mini = LongSightConfig(window=max(1, window),
                                       n_sink=algo.N_SINK, top_k=k,
                                       thresholds=th, use_itq=True)
                ppl, stats = algo.evaluate_config(paper_name, tokens, mini)
                # Scale the config back up for the perf model.
                full = LongSightConfig(window=window * algo.SCALE, n_sink=16,
                                       top_k=k * algo.SCALE, thresholds=th,
                                       use_itq=True)
                engine = LongSightSystem(full, pass_rate=max(
                    1e-3, stats.pass_rate))
                point = best_point(engine, paper_config, PAPER_CONTEXT)
                if point is None:
                    continue
                points.append(ParetoPoint(
                    x=point.throughput_tps / dense_tput,
                    y=dense_ppl / ppl,
                    label=f"LongSight W={window * algo.SCALE},"
                          f"k={k * algo.SCALE},TH={th}",
                    config={"window": window, "k": k, "threshold": th}))
    return points


def sliding_window_points(paper_name: str,
                          dataset: str = "PG") -> List[ParetoPoint]:
    """Sliding-window baseline: sweep window size."""
    mini_ctx = PAPER_CONTEXT // algo.SCALE
    model = algo.get_model(paper_name)
    tokens = algo.get_tokens(dataset, mini_ctx)
    dense_ppl = algo.dense_perplexity(paper_name, dataset, mini_ctx)
    paper_config = PAPER_MODELS[paper_name]
    dense_tput = _dense_tput(paper_config, PAPER_CONTEXT)
    points = []
    for window in (32, 128, 512, 1024, 2048):
        backend = SlidingWindowAttention(window=window, n_sink=algo.N_SINK)
        ppl = perplexity(model, tokens, backend=backend)
        system = SlidingWindowGpuSystem(window=window * algo.SCALE, n_sink=16)
        point = best_point(system, paper_config, PAPER_CONTEXT)
        if point is None:
            continue
        points.append(ParetoPoint(
            x=point.throughput_tps / dense_tput,
            y=dense_ppl / ppl,
            label=f"SlidingWindow W={window * algo.SCALE}",
            config={"window": window}))
    return points


def run_fig10(paper_name: str = "llama-3-1b", dataset: str = "PG") -> Table:
    ls_points = longsight_points(paper_name, dataset)
    sw_points = sliding_window_points(paper_name, dataset)
    ls_front = {p.label for p in pareto_frontier(ls_points)}
    sw_front = {p.label for p in pareto_frontier(sw_points)}
    table = Table(
        f"Figure 10: accuracy vs normalized throughput ({paper_name}, "
        f"{dataset}, ctx={PAPER_CONTEXT})",
        ["config", "normalized_throughput", "accuracy_vs_dense",
         "on_frontier"],
        note="throughput normalized to dense 1-GPU at the same context; "
             "accuracy = dense_ppl / ppl from the miniature models.")
    for point in sorted(ls_points + sw_points, key=lambda p: -p.y):
        table.add_row(config=point.label, normalized_throughput=point.x,
                      accuracy_vs_dense=point.y,
                      on_frontier="yes" if point.label in (ls_front | sw_front)
                      else "")
    return table
