"""Pareto utilities."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.system.sweep import ParetoPoint, pareto_frontier

points_strategy = st.lists(
    st.tuples(st.floats(0, 100, allow_nan=False),
              st.floats(0, 100, allow_nan=False)),
    min_size=1, max_size=40)


def _points(pairs):
    return [ParetoPoint(x=x, y=y, label=str(i))
            for i, (x, y) in enumerate(pairs)]


def test_simple_frontier():
    points = _points([(1, 3), (2, 2), (3, 1), (1.5, 1.5)])
    frontier = pareto_frontier(points)
    assert {(p.x, p.y) for p in frontier} == {(1, 3), (2, 2), (3, 1)}


def test_dominated_point_removed():
    points = _points([(5, 5), (1, 1)])
    frontier = pareto_frontier(points)
    assert len(frontier) == 1 and frontier[0].x == 5


@given(points_strategy)
@settings(max_examples=50, deadline=None)
def test_frontier_properties(pairs):
    points = _points(pairs)
    frontier = pareto_frontier(points)
    assert frontier  # never empty for non-empty input
    # No frontier point dominates another.
    for a in frontier:
        for b in frontier:
            if a is not b:
                assert not (a.x >= b.x and a.y >= b.y
                            and (a.x > b.x or a.y > b.y))
    # Every input point is dominated-or-equal by some frontier point.
    for p in points:
        assert any(f.x >= p.x and f.y >= p.y for f in frontier)
    # Sorted by x ascending.
    xs = [p.x for p in frontier]
    assert xs == sorted(xs)
