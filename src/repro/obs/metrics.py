"""Name-keyed counters behind one registry.

The registry holds exactly what something outside the tests reads: the
seven counters the wall-clock ledger (``perf/``) folds into its
per-layer metrics.

- ``attention.queries``, ``attention.dense.accesses``,
  ``attention.sparse.candidates``, ``attention.sparse.passed`` and
  ``attention.sparse.selected`` — the dense-window vs. sparse access
  split of every kernel forward (``_record_split`` in
  :mod:`repro.core.hybrid`), from which the ledger computes the filter
  ratio, keys scored per query and K/V bytes per token;
- ``serve.steps`` — engine steps that ran work (the engine run's
  ``step`` records whose batch is not ``None``);
- ``fleet.dispatched`` — requests the fleet router placed.

Every other fact has one account elsewhere: the record stream's folds
(``RequestEvents``, ``RecordLog.counts``, ``FleetReport``),
``SupervisorStats``, the pool's prefix counters and ``FilterStats``.

Design constraints, in order:

1. **Cheap when off.**  A registry constructed with ``enabled=False``
   hands out one shared null counter whose ``inc`` is a no-op, so
   instrumented hot paths cost an attribute access and a branch
   (``tests/obs/test_overhead.py`` pins the overhead below 5% of a
   decode microloop).
2. **Mergeable.**  Counter merges are associative and commutative
   (integer increments merge exactly), so per-worker registries can be
   reduced in any order.

Report percentiles are exact and come from the record stream
(:func:`exact_percentile`), not from here.

Kept unreached: ``MetricsRegistry.snapshot`` — reference oracle: tests
compare whole registries.
"""

from __future__ import annotations

from typing import Dict, Sequence

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


class _NullCounter(Counter):
    __slots__ = ()

    def inc(self, amount=1) -> None:
        pass


NULL_COUNTER = _NullCounter("null")


class MetricsRegistry:
    """Name-keyed counters with a cheap no-op mode.

    Counters are created on first use and cached by name, so hot paths
    may call ``registry.counter("x").inc()`` every step without churn.
    With ``enabled=False`` every lookup returns the shared null counter;
    callers that compute *inputs* to a counter should guard the
    computation behind ``registry.enabled``.
    """

    def __init__(self, enabled: bool = True) -> None:
        self.enabled = enabled
        self._counters: Dict[str, Counter] = {}

    def counter(self, name: str) -> Counter:
        if not self.enabled:
            return NULL_COUNTER
        instrument = self._counters.get(name)
        if instrument is None:
            instrument = self._counters[name] = Counter(name)
        return instrument

    def merge(self, other: "MetricsRegistry") -> None:
        """Add in every one of ``other``'s counters — associative and
        commutative, so the fleet report reduces its workers' registries
        in any order."""
        if not self.enabled:
            return
        for name, counter in other._counters.items():
            self.counter(name).inc(counter.value)

    def snapshot(self) -> Dict[str, float]:
        """Every counter's value, by name."""
        return {n: c.value for n, c in sorted(self._counters.items())}
