"""Property tests for the metrics registry (hypothesis).

The contract the observability layer documents: registry merges are
associative and commutative, so per-worker registries can be folded in
any order (exact for integer counters; gauges merge by max, histograms by
bucket-count addition).
"""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.obs import Histogram, MetricsRegistry

# Spans both tails: below the first edge (1e-6) and above the last (1e2).
_values = st.lists(
    st.floats(min_value=1e-9, max_value=1e4,
              allow_nan=False, allow_infinity=False),
    min_size=1, max_size=120)


class TestPercentileEstimate:
    @given(values=_values, split=st.integers(min_value=0, max_value=120))
    @settings(max_examples=100, deadline=None)
    def test_merge_equals_observing_concatenation(self, values, split):
        split = min(split, len(values))
        left, right = Histogram("h"), Histogram("h")
        for value in values[:split]:
            left.observe(value)
        for value in values[split:]:
            right.observe(value)
        whole = Histogram("h")
        for value in values:
            whole.observe(value)
        left.merge(right)
        assert np.array_equal(left.counts, whole.counts)
        assert left.count == whole.count
        assert left.min == whole.min and left.max == whole.max


_names = st.sampled_from(["a", "b", "c"])
_incs = st.lists(st.tuples(_names, st.integers(min_value=0, max_value=10**6)),
                 max_size=30)


def _registry(increments) -> MetricsRegistry:
    registry = MetricsRegistry()
    for name, amount in increments:
        registry.counter(name).inc(amount)
    return registry


class TestCounterMerge:
    @given(x=_incs, y=_incs)
    @settings(max_examples=200, deadline=None)
    def test_commutative(self, x, y):
        xy = _registry(x)
        xy.merge(_registry(y))
        yx = _registry(y)
        yx.merge(_registry(x))
        assert xy.snapshot()["counters"] == yx.snapshot()["counters"]

    @given(x=_incs, y=_incs, z=_incs)
    @settings(max_examples=200, deadline=None)
    def test_associative(self, x, y, z):
        left = _registry(x)
        left.merge(_registry(y))
        left.merge(_registry(z))
        inner = _registry(y)
        inner.merge(_registry(z))
        right = _registry(x)
        right.merge(inner)
        assert left.snapshot()["counters"] == right.snapshot()["counters"]

    @given(x=_incs, y=_incs)
    @settings(max_examples=100, deadline=None)
    def test_merge_equals_total(self, x, y):
        merged = _registry(x)
        merged.merge(_registry(y))
        totals = {}
        for name, amount in list(x) + list(y):
            totals[name] = totals.get(name, 0) + amount
        assert merged.snapshot()["counters"] == totals
