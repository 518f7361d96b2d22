"""Pareto frontiers of parameter sweeps (Figures 4 and 10).

The paper sweeps (window W, top-k, SCF thresholds) per dataset/model and
plots accuracy against filter ratio (Figure 4) or normalized throughput
(Figure 10), reporting the Pareto frontier across all configurations.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List, Sequence


@dataclasses.dataclass
class ParetoPoint:
    """One swept configuration in a 2-D quality/efficiency space."""

    x: float            # efficiency axis (filter ratio / normalized tput)
    y: float            # quality axis (accuracy relative to dense)
    label: str = ""
    config: Dict = dataclasses.field(default_factory=dict)


def pareto_frontier(points: Sequence[ParetoPoint]) -> List[ParetoPoint]:
    """Non-dominated subset (maximizing both axes), sorted by x.

    A point is dominated if another point is >= in both coordinates and
    strictly greater in at least one.
    """
    frontier: List[ParetoPoint] = []
    for p in sorted(points, key=lambda q: (-q.x, -q.y)):
        if not frontier or p.y > frontier[-1].y:
            frontier.append(p)
    return sorted(frontier, key=lambda q: q.x)
