"""Observability layer: metrics registry, tracing spans, profiling hooks.

``repro.obs`` is the measurement substrate the rest of the system reports
into — attention backends (dense/sparse access split, per-step filter
ratio), the offload supervisor (retries / repairs / degradations), the
DReX device and analytic timing models (per-stage modeled latency
attribution), and the serve engine (queue depth, batch size, preemptions,
shed causes, TTFT/TPOT distributions).

Instrumented components take an optional :class:`Obs` bundle (a metrics
registry plus a tracer); passing ``None`` binds them to the process-global
default, which ships with metrics **enabled** (bounded memory: counters,
gauges, fixed-bucket histograms) and tracing **disabled** (span storage
grows with work, so traces are opt-in per run).  ``NULL_OBS`` disables
everything at the cost of a branch per hook — the overhead-regression
test pins that mode below 5% of a decode microloop.

See DESIGN.md ("Observability") for the span taxonomy and metric names.
"""

from __future__ import annotations

from typing import Optional

from repro.obs.metrics import (Counter, Gauge, Histogram, MetricsRegistry,
                               NULL_COUNTER, NULL_GAUGE, NULL_HISTOGRAM,
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
    "Counter", "Gauge", "Histogram", "MetricsRegistry", "Obs", "Span",
    "Tracer", "NULL_COUNTER", "NULL_GAUGE", "NULL_HISTOGRAM", "NULL_OBS",
    "exact_percentile", "resolve_obs",
]
