"""Outside-in tracing: spans around the public calls into each layer.

The traced run patches the public callables of ``repro`` listed in
:func:`install` (class-level, in the measuring child only) with a
recorder that keeps one span per call — name, start, end, parent and,
where the call carries a request, that request's id as the trace id.
Spans stay in memory until the pass ends.  A span's *self time* is its
duration minus the part its direct children cover; the per-layer times of
the ledger are sums of self times by span name, so they add up to the
root span without double counting.

Spans inside the program (score GEMM vs top-k vs softmax inside the
attention kernel, the MLP inside a layer) are out of scope here.
"""

from __future__ import annotations

import functools
import json
import pathlib
import sys
import time
from typing import Callable, Dict, List, Optional, Tuple

ROOT = "perf.pass"


class Recorder:
    """In-memory span store with an open-span stack (single thread)."""

    def __init__(self) -> None:
        #: [name, start, end, parent index or -1, trace id or None]
        self.spans: List[list] = []
        self._stack: List[int] = []
        #: free-form counters bumped by the wrappers' hooks.
        self.counts: Dict[str, float] = {}

    def open(self, name: str, trace_id=None) -> int:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent, trace_id])
        self._stack.append(index)
        return index

    def close(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter()
        self._stack.pop()

    def add(self, key: str, amount: float = 1) -> None:
        self.counts[key] = self.counts.get(key, 0) + amount


def self_times(spans: List[list]) -> Dict[str, Tuple[int, float, float]]:
    """``name -> (calls, inclusive seconds, self seconds)`` over ``spans``."""
    child_s = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child_s[parent] += end - start
    table: Dict[str, List[float]] = {}
    for (name, start, end, _, _), covered in zip(spans, child_s):
        row = table.setdefault(name, [0, 0.0, 0.0])
        row[0] += 1
        row[1] += end - start
        row[2] += (end - start) - covered
    return {name: (int(c), inc, own) for name, (c, inc, own) in table.items()}


def chrome_trace(spans: List[list]) -> dict:
    """Chrome ``trace_event`` document (complete events, microseconds)."""
    origin = spans[0][1] if spans else 0.0
    events = []
    for name, start, end, parent, trace_id in spans:
        event = {"name": name, "ph": "X", "pid": 1, "tid": 1,
                 "ts": (start - origin) * 1e6, "dur": (end - start) * 1e6,
                 "cat": name.split(".")[0]}
        if trace_id is not None:
            event["args"] = {"trace_id": trace_id}
        events.append(event)
    return {"traceEvents": events, "displayTimeUnit": "ms"}


def write_outputs(spans: List[list], directory: pathlib.Path,
                  stem: str) -> None:
    """Write the Chrome trace and the self-time table under ``directory``."""
    directory.mkdir(parents=True, exist_ok=True)
    (directory / f"{stem}.trace.json").write_text(
        json.dumps(chrome_trace(spans)))
    rows = sorted(self_times(spans).items(), key=lambda kv: -kv[1][2])
    lines = [f"{'span':32s} {'calls':>9s} {'inclusive_s':>12s} "
             f"{'self_s':>10s}"]
    lines += [f"{name:32s} {calls:9d} {inc:12.4f} {own:10.4f}"
              for name, (calls, inc, own) in rows]
    (directory / f"{stem}.selftime.txt").write_text("\n".join(lines) + "\n")


# -- patching ------------------------------------------------------------------

def _request_id(args) -> Optional[int]:
    """Trace id of a call: the id of the request it carries, if any."""
    rid = getattr(args[1], "request_id", None) if len(args) > 1 else None
    return None if rid is None else int(rid)


def _wrap(fn: Callable, name, recorder: Recorder,
          after: Optional[Callable] = None) -> Callable:
    """``fn`` recorded as a span; ``name`` may be ``callable(args)``.

    ``after(recorder, args, result)`` runs once the span is closed, for
    the counts taken at the same boundary.
    """
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        span_name = name(args) if callable(name) else name
        index = recorder.open(span_name, _request_id(args))
        try:
            result = fn(*args, **kwargs)
        finally:
            recorder.close(index)
        if after is not None:
            after(recorder, args, result)
        return result
    return wrapper


class Patches:
    """Installs and removes the span wrappers."""

    def __init__(self, recorder: Recorder) -> None:
        self.recorder = recorder
        self._undo: List[Tuple[object, str, object]] = []

    def _set(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def method(self, cls: type, attr: str, name, after=None) -> None:
        original = cls.__dict__[attr]
        if isinstance(original, property):
            wrapped = property(_wrap(original.fget, name, self.recorder,
                                     after))
        else:
            wrapped = _wrap(original, name, self.recorder, after)
        self._set(cls, attr, wrapped)

    def function(self, module, attr: str, name, after=None) -> None:
        """Patch a module-level function in every module that bound it.

        ``from repro.core.scf import pack_signs`` copies the binding into
        the importing module, so the wrapper replaces every such copy.
        """
        original = getattr(module, attr)
        wrapped = _wrap(original, name, self.recorder, after)
        for mod in list(sys.modules.values()):
            for key, value in list(getattr(mod, "__dict__", {}).items()):
                if value is original:
                    self._set(mod, key, wrapped)

    def remove(self) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()


def _attention_name(args) -> str:
    # forward_cached(self, layer, q, cache): more than one query = prefill.
    return "core.attn_prefill" if args[2].shape[1] > 1 else "core.attn_decode"


def _after_prefill(recorder: Recorder, args, result) -> None:
    recorder.add("llm.prefill_tokens", len(args[1]))


def _after_decode(recorder: Recorder, args, result) -> None:
    recorder.add("llm.decode_tokens", len(args[1]))
    recorder.add("llm.decode_calls")


def _after_admit(recorder: Recorder, args, admitted) -> None:
    for request in admitted:
        tokens = len(request.resume_tokens)
        recorder.add("serve.admitted_tokens", tokens)
        if len(request.outputs):
            recorder.add("serve.readmitted_tokens", tokens)


def _after_attach(recorder: Recorder, args, attached) -> None:
    recorder.add("serve.attached_tokens", attached)


def _after_snapshot(recorder: Recorder, args, result) -> None:
    recorder.add("durable.snapshot_bytes",
                 pathlib.Path(args[0]).stat().st_size)


def _after_recover(recorder: Recorder, args, result) -> None:
    stats = result[1]
    recorder.add("durable.snapshot_load_s", stats.snapshot_load_s)
    recorder.add("durable.replay_s", stats.replay_s)
    recorder.add("durable.steps_replayed", stats.steps_replayed)
    recorder.add("durable.tokens_replayed", stats.tokens_replayed)


def install(recorder: Recorder) -> Patches:
    """Patch the public callables of every layer; returns the undo handle."""
    import repro.core.scf as scf
    import repro.core.topk as topk
    import repro.durable.runner as runner
    import repro.durable.snapshot as snapshot
    from repro.core.hybrid import LongSightAttention
    from repro.durable.runner import DurableRun
    from repro.durable.wal import WriteAheadLog
    from repro.fleet.router import FleetRouter
    from repro.llm.model import Transformer
    from repro.serve.engine import EngineRun
    from repro.serve.paged_kv import PagedKVCache, PagedKVPool, PagedLayerKV
    from repro.serve.scheduler import ContinuousBatchScheduler

    p = Patches(recorder)
    # core: attention entry points, then the scf/topk functions they call.
    p.method(LongSightAttention, "forward_cached", _attention_name)
    p.method(LongSightAttention, "forward_cached_batch", "core.attn_decode")
    for attr in ("sign_bits", "sign_pm1", "concordance",
                 "concordance_from_signs", "scf_filter", "pack_signs",
                 "unpack_signs_pm1", "concordance_packed",
                 "concordance_packed_many", "mismatches_packed",
                 "scf_filter_packed", "concordance_packed_sessions"):
        p.function(scf, attr, "core.scf")
    for attr in ("top_k_indices", "top_k_mask"):
        p.function(topk, attr, "core.topk")
    # llm
    p.method(Transformer, "prefill", "llm.prefill", _after_prefill)
    p.method(Transformer, "decode_step_batch", "llm.decode", _after_decode)
    # serve
    p.method(EngineRun, "step", "serve.engine_step")
    for attr in ("submit", "assemble", "update_brownout", "preempt_victim",
                 "request_finished"):
        p.method(ContinuousBatchScheduler, attr, "serve.scheduler")
    p.method(ContinuousBatchScheduler, "admit", "serve.scheduler",
             _after_admit)
    for attr in ("allocate", "release"):
        p.method(PagedKVPool, attr, "serve.pool")
    for attr in ("ensure_tokens", "free"):
        p.method(PagedKVCache, attr, "serve.pool")
    p.method(PagedKVCache, "attach_prefix", "serve.prefix", _after_attach)
    p.method(PagedKVCache, "publish_prefix", "serve.prefix")
    for attr in ("keys", "values", "packed_signs"):
        p.method(PagedLayerKV, attr, "serve.kv_gather")
    p.method(PagedLayerKV, "append", "serve.kv_append")
    # durable
    for attr in ("step", "inject", "note_departure", "finish"):
        p.method(DurableRun, attr, "durable.step")
    p.method(WriteAheadLog, "append", "durable.wal_append")
    p.method(WriteAheadLog, "sync", "durable.wal_sync")
    p.function(snapshot, "write_snapshot", "durable.snapshot",
               _after_snapshot)
    p.function(runner, "recover", "durable.recover", _after_recover)
    # fleet
    p.method(FleetRouter, "run", "fleet.run")
    return p
