"""Small-sample statistics for the ledger (no numpy: the parent process
that only orchestrates children must start fast)."""

from __future__ import annotations

import statistics
from typing import Dict, Sequence

#: A percentile is reported as a tail estimate only when at least this
#: many samples lie beyond it.
MIN_SAMPLES_BEYOND = 10


def supported(n_samples: int, q: float) -> bool:
    """Does a sample of ``n_samples`` leave >= 10 samples beyond ``q``?"""
    return n_samples * (100.0 - q) / 100.0 >= MIN_SAMPLES_BEYOND - 1e-9


def summary(values: Sequence[float]) -> Dict[str, float]:
    """Median with min and max beside it (what every metric reports)."""
    return {"median": statistics.median(values), "min": min(values),
            "max": max(values), "n": len(values)}
