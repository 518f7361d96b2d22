"""Every callable the benchmark's tracer patches still exists under ``src/``.

``perf/spans.py`` (the traced half of ``BENCHMARK.json``'s benchmark) wraps
public callables of ``repro`` by name — methods through the class
``__dict__``, module functions through ``getattr``.  A rename under
``src/`` therefore breaks every traced benchmark run, and nothing in
tier-1 imports ``perf/``.  This test installs and removes the patches, so
the missing name fails here, by name, instead of at the benchmark gate.
It reads ``perf/``; it changes nothing there.
"""

import importlib.util
import pathlib

import pytest

SPANS = pathlib.Path(__file__).resolve().parents[2] / "perf" / "spans.py"


@pytest.fixture
def recorder():
    """``perf/spans.py``'s patches installed around the test."""
    if not SPANS.exists():
        pytest.skip("perf/ is not part of this checkout")
    spec = importlib.util.spec_from_file_location("perf_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    created = []

    class Tracked(spans.Patches):
        """Keeps the handle, so a half-done install is still undone."""

        def __init__(self, recorder):
            super().__init__(recorder)
            created.append(self)

    spans.Patches = Tracked
    recorder = spans.Recorder()
    try:
        try:
            spans.install(recorder)
        except (KeyError, AttributeError) as exc:
            pytest.fail(f"perf/spans.py patches a name that src/ no longer "
                        f"defines: {exc!r}")
        yield recorder
    finally:
        for patches in created:
            patches.remove()


def test_every_span_target_resolves(recorder):
    assert recorder.spans == []


def test_kv_store_spans_fire_on_the_served_path(recorder):
    """A patched name that resolves can still be a name nothing calls:
    the pool-backed session has to go *through* ``PagedLayerKV.append`` /
    ``.keys`` and ``PagedKVCache.ensure_tokens`` / ``attach_prefix`` for
    ``serve.kv_append_s`` / ``kv_gather_s`` / ``pool_s`` / ``prefix_s`` to
    mean anything.  One prefill chunk and one pooled decode step of a
    prefix-attached session record each of them at least once.  Sign
    packing is the store's (``repro.llm.kv_cache.pack_signs``, which
    ``repro.core.scf`` re-exports), so a ``core.scf`` span must open
    directly under a ``serve.kv_append`` span: packing on append is
    traced wherever the function is defined."""
    import numpy as np

    from repro.core.config import LongSightConfig
    from repro.core.hybrid import LongSightAttention
    from repro.llm.model import Transformer
    from repro.serve.paged_kv import PagedKVPool
    from tests.conftest import TINY

    model = Transformer(TINY, seed=0)
    backend = LongSightAttention(LongSightConfig(
        window=8, n_sink=4, top_k=6, thresholds=TINY.head_dim // 2))
    pool = PagedKVPool(TINY, n_blocks=32, block_tokens=4, prefix_caching=True)
    prompt = np.random.default_rng(0).integers(0, TINY.vocab_size, size=40)
    publisher = pool.new_cache()
    model.prefill(prompt[:24], publisher, backend=backend)
    publisher.publish_prefix(prompt[:24])

    session = pool.new_cache()
    mark = len(recorder.spans)
    attached = session.attach_prefix(prompt)
    assert attached == 24
    logits = model.prefill(prompt[attached:], session, backend=backend)
    session.publish_prefix(prompt)
    assert backend._pooled(len(session) + 1)
    model.decode_step_batch([int(logits.argmax())], [session], [backend])
    names = {span[0] for span in recorder.spans[mark:]}
    assert names >= {"serve.kv_append", "serve.kv_gather", "serve.pool",
                     "serve.prefix", "core.attn_prefill", "core.attn_decode"}
    spans = recorder.spans
    assert any(name == "core.scf" and parent >= 0
               and spans[parent][0] == "serve.kv_append"
               for name, _, _, parent, _ in spans[mark:])
