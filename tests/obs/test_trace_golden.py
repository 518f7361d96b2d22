"""Golden-trace test: the serve engine's span tree is a stable contract.

A seeded three-request run under the analytic clock produces a
deterministic scheduling structure — how many engine steps, how many
prefill chunks, how decode batches interleave.  The test pins that
structure (names + nesting + sibling order, **no timestamps**) against a
checked-in golden JSON.  When an intentional scheduling or span-taxonomy
change shifts the shape, regenerate with:

    PYTHONPATH=src python -m pytest tests/obs/test_trace_golden.py \
        --update-golden
"""

import json
import pathlib

import numpy as np
import pytest

from repro.core.config import LongSightConfig
from repro.core.hybrid import LongSightAttention
from repro.llm.config import LLAMA3_8B
from repro.llm.model import Transformer
from repro.obs import MetricsRegistry, Obs, Tracer
from repro.serve.workload import default_systems
from repro.serve.engine import AnalyticTiming, ServeEngine
from repro.serve.paged_kv import PagedKVPool
from repro.serve.scheduler import ServeRequest
from repro.system.prefill import PrefillModel
from tests.conftest import TINY

GOLDEN = pathlib.Path(__file__).parent / "golden" / "serve_trace.json"
LS = LongSightConfig(window=8, n_sink=4, top_k=12, thresholds=3)


def _traced_run() -> Tracer:
    """The pinned scenario: three staggered prompts, analytic clock.

    Every input is seeded and the clock is analytic, so the engine's
    step/chunk/batch structure — hence the span tree — is deterministic.
    """
    model = Transformer(TINY, seed=0)
    rng = np.random.default_rng(42)
    prompts = [rng.integers(0, TINY.vocab_size, size=n)
               for n in (20, 33, 48)]
    obs = Obs(MetricsRegistry(enabled=True), Tracer(enabled=True))
    pool = PagedKVPool(TINY, n_blocks=64, block_tokens=16)
    engine = ServeEngine(
        model, pool, lambda r: LongSightAttention(LS),
        timing=AnalyticTiming(default_systems()["longsight"], LLAMA3_8B,
                              prefill=PrefillModel()),
        obs=obs)
    requests = [ServeRequest(request_id=i, prompt=p, max_new_tokens=6,
                             charged_prompt_tokens=32_768)
                for i, p in enumerate(prompts)]
    engine.run(requests)
    for request in requests:
        assert len(request.outputs) == 6   # the scenario actually served
    return obs.tracer


def test_span_tree_matches_golden(update_golden):
    tree = _traced_run().span_tree()
    if update_golden:
        GOLDEN.parent.mkdir(parents=True, exist_ok=True)
        GOLDEN.write_text(json.dumps(tree, indent=2) + "\n")
        pytest.skip(f"golden rewritten: {GOLDEN}")
    assert GOLDEN.exists(), \
        "golden missing — run with --update-golden to create it"
    assert tree == json.loads(GOLDEN.read_text())


def test_span_structure_invariants():
    """Shape facts that must hold regardless of the golden's content."""
    tracer = _traced_run()
    spans = tracer.spans
    assert spans, "instrumented run recorded no spans"
    roots = [s for s in spans if s.parent < 0]
    assert [r.name for r in roots] == ["serve.run"]
    for span in spans:
        assert span.end_s >= span.start_s
        if span.parent >= 0:
            parent = spans[span.parent]
            assert span.parent < span.index    # parents precede children
            assert parent.start_s <= span.start_s
            assert span.end_s <= parent.end_s + 1e-9
    names = {s.name for s in spans}
    assert {"serve.run", "engine.step", "decode_batch",
            "prefill_chunk"} <= names
    # every engine.step nests directly under serve.run
    for span in spans:
        if span.name == "engine.step":
            assert spans[span.parent].name == "serve.run"


def test_chrome_trace_export_is_valid(tmp_path):
    tracer = _traced_run()
    path = tracer.write_chrome_trace(tmp_path / "trace.json")
    trace = json.loads(path.read_text())
    events = trace["traceEvents"]
    assert len(events) == len(tracer.spans)
    for event in events:
        assert event["ph"] == "X"
        assert event["ts"] >= 0.0 and event["dur"] >= 0.0
        assert isinstance(event["name"], str) and event["name"]
        assert event["pid"] == 1 and event["tid"] == 1
    # origin normalisation: the earliest event starts at ts == 0
    assert min(e["ts"] for e in events) == 0.0


def test_disabled_tracer_records_nothing():
    tracer = Tracer(enabled=False)
    with tracer.span("anything", note=1):
        with tracer.span("nested"):
            pass
    assert tracer.spans == []
    assert tracer.to_chrome_trace() == {"traceEvents": [],
                                        "displayTimeUnit": "ms"}
    assert tracer.root_coverage(1.0) == 0.0
