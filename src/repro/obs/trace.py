"""Nested tracing spans with Chrome ``trace_event`` export.

A :class:`Tracer` records ``span("decode_step")``-style nested intervals
on a monotonic clock.  Spans are appended to ``tracer.spans`` *at entry*
(so a parent always precedes its children and sibling order is execution
order) and closed at exit; the two exports are:

- :meth:`Tracer.to_chrome_trace` — the Chrome ``trace_event`` JSON object
  (open in ``chrome://tracing`` or https://ui.perfetto.dev);
- :meth:`Tracer.span_tree` — names and nesting only, no timestamps — the
  stable shape the golden-trace test pins.  Only that test calls it: it is
  the test's oracle.

A tracer constructed with ``enabled=False`` is the no-op mode: ``span``
returns a shared null context manager and nothing is recorded, so
always-on instrumentation costs one method call per span site.

Kept unreached: ``Tracer.span_tree`` — reference oracle of the golden-trace
test.
"""

from __future__ import annotations

import json
import pathlib
import time
from typing import Callable, Dict, List, Optional


class Span:
    """One closed (or still-open) interval in the trace."""

    __slots__ = ("name", "start_s", "end_s", "depth", "parent", "index",
                 "args")

    def __init__(self, name: str, start_s: float, depth: int, parent: int,
                 index: int, args: Optional[dict]) -> None:
        self.name = name
        self.start_s = start_s
        self.end_s = start_s          # patched at exit
        self.depth = depth
        self.parent = parent          # index into Tracer.spans, -1 for roots
        self.index = index
        self.args = args or {}

    @property
    def duration_s(self) -> float:
        return self.end_s - self.start_s


class _NullSpan:
    """Shared do-nothing context manager for disabled tracers."""

    __slots__ = ()

    def __enter__(self) -> None:
        return None

    def __exit__(self, *exc) -> bool:
        return False


_NULL_SPAN = _NullSpan()


class _SpanContext:
    __slots__ = ("tracer", "name", "args", "_index")

    def __init__(self, tracer: "Tracer", name: str,
                 args: Optional[dict]) -> None:
        self.tracer = tracer
        self.name = name
        self.args = args

    def __enter__(self) -> Span:
        tracer = self.tracer
        span = Span(self.name, tracer.clock(), depth=len(tracer._stack),
                    parent=tracer._stack[-1] if tracer._stack else -1,
                    index=len(tracer.spans), args=self.args)
        tracer.spans.append(span)
        tracer._stack.append(span.index)
        self._index = span.index
        return span

    def __exit__(self, *exc) -> bool:
        tracer = self.tracer
        tracer._stack.pop()
        tracer.spans[self._index].end_s = tracer.clock()
        return False


class Tracer:
    """Span recorder over a monotonic clock.

    Args:
        clock: timestamp source in seconds; injectable so golden tests can
            run on a deterministic counter.
        enabled: ``False`` makes every ``span`` call a shared no-op.
    """

    def __init__(self, clock: Callable[[], float] = time.perf_counter,
                 enabled: bool = True) -> None:
        self.clock = clock
        self.enabled = enabled
        self.spans: List[Span] = []
        self._stack: List[int] = []

    def span(self, name: str, **args):
        """Context manager recording one nested span."""
        if not self.enabled:
            return _NULL_SPAN
        return _SpanContext(self, name, args or None)

    # -- exports --------------------------------------------------------------

    def to_chrome_trace(self, pid: int = 1, tid: int = 1) -> dict:
        """The Chrome ``trace_event`` JSON object (complete "X" events)."""
        if not self.spans:
            return {"traceEvents": [], "displayTimeUnit": "ms"}
        origin = min(span.start_s for span in self.spans)
        events = []
        for span in self.spans:
            events.append({
                "name": span.name,
                "cat": "repro",
                "ph": "X",
                "ts": (span.start_s - origin) * 1e6,    # microseconds
                "dur": max(0.0, span.duration_s) * 1e6,
                "pid": pid,
                "tid": tid,
                "args": span.args,
            })
        return {"traceEvents": events, "displayTimeUnit": "ms"}

    def write_chrome_trace(self, path) -> pathlib.Path:
        path = pathlib.Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(self.to_chrome_trace()) + "\n")
        return path

    def span_tree(self) -> List[dict]:
        """Nested ``{"name", "children"}`` forest — no timestamps.

        The golden-trace test compares this shape, which is deterministic
        for a seeded run even though timestamps are not.
        """
        nodes: Dict[int, dict] = {}
        roots: List[dict] = []
        for span in self.spans:
            node = {"name": span.name, "children": []}
            nodes[span.index] = node
            if span.parent < 0:
                roots.append(node)
            else:
                nodes[span.parent]["children"].append(node)
        return roots

    # -- accounting -----------------------------------------------------------

    def root_coverage(self, window_s: float) -> float:
        """Fraction of a wall-clock window covered by root spans.

        The acceptance gate for ``--trace-out``: the emitted trace must
        explain (cover) at least 95% of the instrumented run's wall time.
        """
        if window_s <= 0.0:
            return 0.0
        covered = sum(span.duration_s for span in self.spans
                      if span.parent < 0)
        return min(1.0, covered / window_s)
