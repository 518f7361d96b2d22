"""Observability layer: a counter registry and tracing spans.

``repro.obs`` is the measurement substrate the rest of the system reports
into.  The registry keeps the seven counters the wall-clock ledger
(``perf/``) reads — the attention backends' dense/sparse access split,
the engine's ``serve.steps`` and the router's ``fleet.dispatched``; see
:mod:`repro.obs.metrics`.  Every other fact is counted once, in the
record stream's folds and the components' own stats.

Instrumented components take an optional :class:`Obs` bundle (a metrics
registry plus a tracer); passing ``None`` binds them to the process-global
default, which ships with metrics **enabled** (bounded memory: seven
counters) and tracing **disabled** (span storage grows with work, so
traces are opt-in per run).  ``NULL_OBS`` disables everything at the cost
of a branch per hook — the overhead-regression test pins that mode below
5% of a decode microloop.

See DESIGN.md ("Observability") for the span taxonomy and metric names.
"""

from __future__ import annotations

from typing import Optional

from repro.obs.metrics import (Counter, MetricsRegistry, NULL_COUNTER,
                               exact_percentile)
from repro.obs.trace import Span, Tracer


class Obs:
    """A metrics registry and a tracer, bundled for passing around."""

    __slots__ = ("metrics", "tracer")

    def __init__(self, metrics: Optional[MetricsRegistry] = None,
                 tracer: Optional[Tracer] = None) -> None:
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.tracer = tracer if tracer is not None \
            else Tracer(enabled=False)


#: Fully disabled bundle: every hook reduces to a guard branch.
NULL_OBS = Obs(MetricsRegistry(enabled=False), Tracer(enabled=False))

#: Process-global default: metrics on, tracing off.
_DEFAULT_OBS = Obs()


def resolve_obs(obs: Optional[Obs]) -> Obs:
    """``obs`` itself, or the process-global default when ``None``."""
    return obs if obs is not None else _DEFAULT_OBS


__all__ = [
    "Counter", "MetricsRegistry", "Obs", "Span", "Tracer", "NULL_COUNTER",
    "NULL_OBS", "exact_percentile", "resolve_obs",
]
