"""The threshold tuning loop (Section 8.1.3).

:func:`tune_thresholds` mirrors the paper's methodology: "We initialize all
thresholds such that no Keys are filtered.  We iteratively increase the
thresholds for KV heads with the lowest filtering ratios.  This process
continues until the perplexity exceeds a predefined threshold (5%), at
which point we record the filter ratio from the prior iteration."
"""

from __future__ import annotations

import dataclasses
from typing import List, Optional, Tuple

import numpy as np

from repro.core.config import LongSightConfig
from repro.core.hybrid import LongSightAttention
from repro.core.itq import ItqRotations
from repro.core.metrics import FilterStats
from repro.llm.model import Transformer
from repro.llm.perplexity import perplexity, perplexity_increase


def evaluate(model: Transformer, tokens: np.ndarray, config: LongSightConfig,
             rotations: Optional[ItqRotations] = None,
             block_size: int = 256,
             n_stat_heads: Optional[int] = None) -> Tuple[float, FilterStats]:
    """Perplexity and filter statistics for one configuration.

    ``n_stat_heads`` selects the stats resolution (defaults to KV heads;
    pass ``n_q_heads`` for the per-query-head granularity ablation).
    """
    stats = FilterStats(model.config.n_layers,
                        n_stat_heads or model.config.n_kv_heads)
    backend = LongSightAttention(config, rotations=rotations, stats=stats)
    ppl = perplexity(model, tokens, backend=backend, block_size=block_size)
    return ppl, stats


@dataclasses.dataclass
class ThresholdTuneResult:
    """Outcome of the threshold tuning loop."""

    thresholds: np.ndarray  # (n_layers, n_kv_heads)
    perplexity: float
    filter_ratio: float
    iterations: int
    history: List[Tuple[float, float]]  # (perplexity, filter_ratio) per step


def tune_thresholds(model: Transformer, tokens: np.ndarray,
                    base_config: LongSightConfig, dense_ppl: float,
                    max_increase: float = 0.05, step: Optional[int] = None,
                    max_iterations: int = 64,
                    rotations: Optional[ItqRotations] = None,
                    granularity: str = "kv_head",
                    init_threshold: float = 0.0) -> ThresholdTuneResult:
    """Per-(layer, head) SCF threshold tuning.

    Greedy loop: evaluate, then raise the threshold of the (layer, head)
    with the *lowest* filter ratio by ``step`` sign bits; stop (and revert)
    as soon as perplexity rises more than ``max_increase`` over dense, or
    when every threshold saturates at the head dimension.

    Args:
        step: threshold increment in matching-bit units; defaults to
            ``head_dim // 16`` (>= 1).
        granularity: ``"kv_head"`` (the paper's choice) or ``"q_head"``
            (the finer granularity the paper found unstable, Section 5.1).
        init_threshold: starting threshold for every head.  The paper
            initializes at 0 ("no Keys are filtered"); a warm start at
            ``head_dim // 2`` — chance-level concordance, which only drops
            keys scoring below a random vector — reaches the same plateau
            in far fewer (expensive) evaluation iterations.  The first
            evaluation still validates the warm start against the budget,
            and the loop reverts to the best-known-good point as usual.
    """
    if granularity not in ("kv_head", "q_head"):
        raise ValueError("granularity must be 'kv_head' or 'q_head'")
    per_q = granularity == "q_head"
    n_heads = model.config.n_q_heads if per_q else model.config.n_kv_heads
    d = model.config.head_dim
    if step is None:
        step = max(1, d // 16)
    shape = (model.config.n_layers, n_heads)
    thresholds = np.full(shape, float(init_threshold))
    best = None
    history: List[Tuple[float, float]] = []
    iterations = 0
    for iterations in range(1, max_iterations + 1):
        config = base_config.replace(thresholds=thresholds.copy(),
                                     per_q_head_thresholds=per_q)
        ppl, stats = evaluate(model, tokens, config, rotations=rotations,
                              n_stat_heads=n_heads)
        history.append((ppl, stats.filter_ratio))
        if perplexity_increase(ppl, dense_ppl) > max_increase:
            break  # revert to `best`, recorded from the prior iteration
        best = ThresholdTuneResult(
            thresholds=thresholds.copy(), perplexity=ppl,
            filter_ratio=stats.filter_ratio, iterations=iterations,
            history=history,
        )
        ratios = stats.per_head_filter_ratio.copy()
        ratios[thresholds >= d] = np.inf  # saturated heads can't be raised
        if not np.isfinite(ratios).any():
            break
        target = np.unravel_index(int(np.argmin(ratios)), shape)
        thresholds[target] = min(d, thresholds[target] + step)
    if best is None:
        # Even the all-pass configuration violates the budget (tiny k);
        # report it anyway so callers can flag the config as infeasible.
        config = base_config.replace(thresholds=np.zeros(shape),
                                     per_q_head_thresholds=per_q)
        ppl, stats = evaluate(model, tokens, config, rotations=rotations,
                              n_stat_heads=n_heads)
        best = ThresholdTuneResult(np.zeros(shape), ppl, stats.filter_ratio,
                                   iterations, history)
    else:
        best = dataclasses.replace(best, history=history, iterations=iterations)
    return best
