"""Property tests for the metrics registry (hypothesis).

The contract the observability layer documents: registry merges are
associative and commutative, so per-worker registries can be folded in
any order (exact for integer counters).
"""

from hypothesis import given, settings, strategies as st

from repro.obs import MetricsRegistry

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
        assert xy.snapshot() == yx.snapshot()

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
        assert left.snapshot() == right.snapshot()

    @given(x=_incs, y=_incs)
    @settings(max_examples=100, deadline=None)
    def test_merge_equals_total(self, x, y):
        merged = _registry(x)
        merged.merge(_registry(y))
        totals = {}
        for name, amount in list(x) + list(y):
            totals[name] = totals.get(name, 0) + amount
        assert merged.snapshot() == totals
