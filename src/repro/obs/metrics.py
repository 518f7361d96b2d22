"""Counters, gauges, and fixed-bucket histograms behind one registry.

The registry is the metrics substrate every layer of the reproduction
reports into: attention backends count their dense/sparse access split,
the offload supervisor counts retries and degradations, the DReX timing
model attributes modeled nanoseconds per pipeline stage, and the serve
engine records queue depths and batch sizes.  Design constraints, in
order:

1. **Cheap when off.**  A registry constructed with ``enabled=False``
   hands out shared null instruments whose record methods are no-ops, so
   instrumented hot paths cost an attribute access and a branch
   (``tests/obs/test_overhead.py`` pins the overhead below 5% of a
   decode microloop).
2. **Exact where it matters.**  Histograms keep fixed-bucket counts for
   streaming percentile *estimates* (property-tested to land within one
   bucket of the exact answer) and can optionally retain raw samples for
   exact percentiles (the fleet's failover latencies).
3. **Mergeable.**  Counter merges are associative and commutative
   (integer increments merge exactly), so per-worker registries can be
   reduced in any order.
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional, Sequence

import numpy as np


def exact_percentile(values: Sequence[float], q: float) -> float:
    """``np.percentile`` with the empty-input convention used by reports."""
    if len(values) == 0:
        return 0.0
    return float(np.percentile(np.asarray(values, dtype=np.float64), q))


class Counter:
    """A monotonically increasing sum (float increments allowed)."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0

    def inc(self, amount=1) -> None:
        if amount < 0:
            raise ValueError("counters only go up")
        self.value += amount


class Gauge:
    """A last-value instrument with a high watermark.

    Registry merges combine gauges by maximum, which keeps the merge
    associative and commutative (the watermark is usually what a reduced
    snapshot wants anyway: peak queue depth, peak batch size).
    """

    __slots__ = ("name", "value", "high_watermark")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0.0
        self.high_watermark = 0.0

    def set(self, value) -> None:
        self.value = value
        if value > self.high_watermark:
            self.high_watermark = value


#: Default bucket edges: log-spaced from 1 µs to 100 s — wide enough for
#: both wall-clock step times and analytic paper-scale latencies.
DEFAULT_EDGES: tuple = tuple(float(e) for e in np.geomspace(1e-6, 100.0, 65))


class Histogram:
    """Fixed-bucket histogram with optional exact-sample retention.

    Bucket ``i`` counts values ``edges[i-1] < v <= edges[i]``; bucket 0 is
    everything at or below ``edges[0]`` and the final overflow bucket is
    everything above ``edges[-1]``.

    ``estimate_percentile`` uses the nearest-rank method over bucket
    counts, interpolating inside the winning bucket and clamping to the
    observed ``[min, max]``; the estimate provably lands in the same
    bucket as the exact nearest-rank order statistic
    (``tests/obs/test_metrics_props.py``).  ``percentile`` is exact when
    the histogram was created with ``track_values=True`` (it defers to
    :func:`exact_percentile` over the retained samples) and falls back to
    the bucket estimate otherwise.
    """

    __slots__ = ("name", "edges", "counts", "count", "total", "min", "max",
                 "values")

    def __init__(self, name: str, edges: Optional[Sequence[float]] = None,
                 track_values: bool = False) -> None:
        self.name = name
        self.edges = np.asarray(
            DEFAULT_EDGES if edges is None else edges, dtype=np.float64)
        if self.edges.ndim != 1 or len(self.edges) < 1 \
                or np.any(np.diff(self.edges) <= 0):
            raise ValueError("edges must be a strictly increasing 1-D array")
        self.counts = np.zeros(len(self.edges) + 1, dtype=np.int64)
        self.count = 0
        self.total = 0.0
        self.min = math.inf
        self.max = -math.inf
        self.values: Optional[List[float]] = [] if track_values else None

    def observe(self, value) -> None:
        value = float(value)
        self.counts[int(np.searchsorted(self.edges, value, side="left"))] += 1
        self.count += 1
        self.total += value
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value
        if self.values is not None:
            self.values.append(value)

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def bucket_index(self, value: float) -> int:
        """The bucket a value falls in (shared by the property tests)."""
        return int(np.searchsorted(self.edges, float(value), side="left"))

    def estimate_percentile(self, q: float) -> float:
        """Nearest-rank percentile estimated from bucket counts alone."""
        if self.count == 0:
            return 0.0
        rank = max(1, math.ceil(q / 100.0 * self.count))
        cumulative = np.cumsum(self.counts)
        bucket = int(np.searchsorted(cumulative, rank, side="left"))
        below = int(cumulative[bucket - 1]) if bucket > 0 else 0
        lo = self.edges[bucket - 1] if bucket > 0 else self.min
        if bucket >= len(self.edges):
            hi = self.max
        else:
            hi = self.edges[bucket]
        fraction = (rank - below) / int(self.counts[bucket])
        estimate = lo + fraction * max(0.0, hi - lo)
        return float(min(max(estimate, self.min), self.max))

    def percentile(self, q: float) -> float:
        """Exact percentile when samples are retained, estimate otherwise."""
        if self.values is not None:
            return exact_percentile(self.values, q)
        return self.estimate_percentile(q)

    def merge(self, other: "Histogram") -> None:
        if len(other.edges) != len(self.edges) \
                or not np.array_equal(other.edges, self.edges):
            raise ValueError("cannot merge histograms with different edges")
        self.counts += other.counts
        self.count += other.count
        self.total += other.total
        self.min = min(self.min, other.min)
        self.max = max(self.max, other.max)
        if self.values is not None and other.values is not None:
            self.values.extend(other.values)

    def snapshot(self) -> dict:
        return {
            "count": self.count,
            "mean": self.mean,
            "min": self.min if self.count else 0.0,
            "max": self.max if self.count else 0.0,
            "p50": self.percentile(50.0),
            "p95": self.percentile(95.0),
            "p99": self.percentile(99.0),
        }


class _NullCounter(Counter):
    __slots__ = ()

    def inc(self, amount=1) -> None:
        pass


class _NullGauge(Gauge):
    __slots__ = ()

    def set(self, value) -> None:
        pass


class _NullHistogram(Histogram):
    __slots__ = ()

    def __init__(self) -> None:
        super().__init__("null", edges=(0.0, 1.0))

    def observe(self, value) -> None:
        pass


NULL_COUNTER = _NullCounter("null")
NULL_GAUGE = _NullGauge("null")
NULL_HISTOGRAM = _NullHistogram()


class MetricsRegistry:
    """Name-keyed counters/gauges/histograms with a cheap no-op mode.

    Instruments are created on first use and cached by name, so hot paths
    may call ``registry.counter("x").inc()`` every step without churn.
    With ``enabled=False`` every accessor returns a shared null
    instrument; callers that compute *inputs* to a metric should guard
    the computation behind ``registry.enabled``.
    """

    def __init__(self, enabled: bool = True) -> None:
        self.enabled = enabled
        self._counters: Dict[str, Counter] = {}
        self._gauges: Dict[str, Gauge] = {}
        self._histograms: Dict[str, Histogram] = {}

    # -- instrument accessors -------------------------------------------------

    def counter(self, name: str) -> Counter:
        if not self.enabled:
            return NULL_COUNTER
        instrument = self._counters.get(name)
        if instrument is None:
            instrument = self._counters[name] = Counter(name)
        return instrument

    def gauge(self, name: str) -> Gauge:
        if not self.enabled:
            return NULL_GAUGE
        instrument = self._gauges.get(name)
        if instrument is None:
            instrument = self._gauges[name] = Gauge(name)
        return instrument

    def histogram(self, name: str, edges: Optional[Sequence[float]] = None,
                  track_values: bool = False) -> Histogram:
        if not self.enabled:
            return NULL_HISTOGRAM
        instrument = self._histograms.get(name)
        if instrument is None:
            instrument = self._histograms[name] = Histogram(
                name, edges=edges, track_values=track_values)
        return instrument

    # -- aggregation ----------------------------------------------------------

    def merge(self, other: "MetricsRegistry") -> None:
        """Fold in every one of ``other``'s instruments: counters add,
        gauges max, histograms merge — associative and commutative, so
        the fleet report reduces its workers' registries in any order."""
        if not self.enabled:
            return
        for name, counter in other._counters.items():
            self.counter(name).inc(counter.value)
        for name, gauge in other._gauges.items():
            mine = self.gauge(name)
            mine.set(max(mine.value, gauge.value))
            mine.high_watermark = max(mine.high_watermark,
                                      gauge.high_watermark)
        for name, hist in other._histograms.items():
            if name in self._histograms:
                self._histograms[name].merge(hist)
            else:
                clone = Histogram(name, edges=hist.edges,
                                  track_values=hist.values is not None)
                clone.merge(hist)
                self._histograms[name] = clone

    # -- introspection --------------------------------------------------------

    def snapshot(self) -> dict:
        """JSON-ready dump of every instrument."""
        return {
            "counters": {n: c.value for n, c in sorted(self._counters.items())},
            "gauges": {n: {"value": g.value,
                           "high_watermark": g.high_watermark}
                       for n, g in sorted(self._gauges.items())},
            "histograms": {n: h.snapshot()
                           for n, h in sorted(self._histograms.items())},
        }
