"""Numeric edges of the decode routine, through the served path.

The kernel-level edges (``tests/core/test_block_prefill.py``,
``tests/core/test_decode_rows.py``) compare one attention call with the
reference loop.  Here the same edges go through ``ServeEngine`` batches of
ragged sessions: served tokens must equal solo ``generate`` and no
attention row may contain a non-finite value — in particular when every
candidate is filtered out and a row's whole pool is ``-inf``.  The
``top_k`` and threshold extremes also go through whole-model ``generate``
against a :class:`~repro.core.reference.ReferenceAttention` model.
"""

import dataclasses

import numpy as np
import pytest

from repro.core.config import LongSightConfig
from repro.core.hybrid import LongSightAttention, _SparseSpan
from repro.core.reference import ReferenceAttention
from repro.llm.kv_cache import KVCache
from repro.llm.model import Transformer
from repro.llm.sampling import generate
from repro.serve.engine import ServeEngine
from repro.serve.paged_kv import PagedKVPool
from repro.serve.scheduler import RequestState, ServeRequest
from tests.conftest import TINY

D_HEAD = TINY.head_dim
#: name -> (config, prompt lengths).  Sinks + window = 12 unless stated.
EDGES = {
    "top_k_0": (dict(top_k=0), (9, 14, 22, 31)),
    "top_k_1": (dict(top_k=1), (9, 14, 22, 31)),
    "top_k_covers_candidates": (dict(top_k=10 ** 3), (9, 14, 22, 31)),
    "all_pass": (dict(thresholds=0), (9, 14, 22, 31)),
    "none_pass": (dict(thresholds=D_HEAD + 1), (9, 14, 22, 31)),
    "shorter_than_sinks": (dict(n_sink=64), (3, 9, 20)),
    "shorter_than_window": (dict(window=64), (3, 9, 20)),
}


def _config(**overrides) -> LongSightConfig:
    return LongSightConfig(**{"window": 8, "n_sink": 4, "top_k": 4,
                              "thresholds": 3, **overrides})


@pytest.fixture(scope="module")
def model():
    return Transformer(TINY, seed=0)


@pytest.fixture
def rows(monkeypatch):
    """Every stacked decode call of the test: (layouts, sessions), after
    checking that its outputs are finite."""
    seen = []
    routine = LongSightAttention.forward_cached_batch

    def checked(self, layer, qs, caches):
        out = routine(self, layer, qs, caches)
        assert np.isfinite(out).all()
        seen.append(({self._row_layout(len(c.layers[layer]))
                      for c in caches}, len(caches)))
        return out

    monkeypatch.setattr(LongSightAttention, "forward_cached_batch", checked)
    return seen


@pytest.fixture
def units(monkeypatch):
    """Every stages-1-4 call of a decode step in the test: per unit of
    the stack, the keys that passed the filter and the keys selected."""
    seen = []
    stages = _SparseSpan.select

    def spy(self, *args):
        result = stages(self, *args)
        if self.n_new == 1:
            seen.append(result[2:])
        return result

    monkeypatch.setattr(_SparseSpan, "select", spy)
    return seen


def _serve(model, config, prompts, max_new):
    pool = PagedKVPool(model.config, n_blocks=64, block_tokens=16)
    engine = ServeEngine(model, pool,
                         lambda request: LongSightAttention(config))
    requests = [ServeRequest(request_id=i, prompt=p, max_new_tokens=max_new)
                for i, p in enumerate(prompts)]
    engine.run(requests)
    assert all(r.state is RequestState.DONE for r in requests)
    return [r.outputs for r in requests]


@pytest.mark.parametrize("edge", sorted(EDGES))
def test_served_tokens_equal_generate_at_the_edge(model, rng, rows, edge):
    overrides, lengths = EDGES[edge]
    config = _config(**overrides)
    prompts = [rng.integers(0, TINY.vocab_size, size=n) for n in lengths]
    served = _serve(model, config, prompts, max_new=8)
    assert max(n for _, n in rows) == len(prompts)      # really stacked
    for prompt, outputs in zip(prompts, served):
        assert outputs == list(generate(model, prompt, 8,
                                        backend=LongSightAttention(config)))


def _logits(model, prompt, tokens, backend):
    """Prefill ``prompt``, then decode ``tokens``: the logits of each step."""
    cache = KVCache(model.config)
    steps = [model.prefill(prompt, cache, backend=backend)]
    steps += [model.decode_step(int(t), cache, backend=backend)
              for t in tokens]
    return np.array(steps)


@pytest.mark.parametrize("edge", ["top_k_0", "top_k_1",
                                  "top_k_covers_candidates", "all_pass",
                                  "none_pass"])
def test_generate_equals_the_reference_at_the_extremes(model, rng, edge):
    """``tests/core/test_block_prefill.py``'s ``top_k`` (0, 1, >=
    candidates) and threshold (0, ``head_dim + 1``) extremes through
    whole-model prefill and decode: greedy tokens equal a
    ``ReferenceAttention`` model's, and so does every step's logits, to
    1e-9.  Prompts span one prefill block and two (270 > 256 rows)."""
    config = _config(**EDGES[edge][0])
    for n in (9, 31, 270):
        prompt = rng.integers(0, TINY.vocab_size, size=n)
        tokens = generate(model, prompt, 8,
                          backend=LongSightAttention(config))
        np.testing.assert_array_equal(tokens, generate(
            model, prompt, 8, backend=ReferenceAttention(config)))
        np.testing.assert_allclose(
            _logits(model, prompt, tokens, LongSightAttention(config)),
            _logits(model, prompt, tokens, ReferenceAttention(config)),
            rtol=0, atol=1e-9)


def test_none_pass_leaves_a_whole_pool_at_minus_inf(model, rng, rows):
    """The pooled layout with zero survivors: the row is the dense panel
    plus ``top_k`` columns of ``-inf`` — finite outputs, equal to the
    sliding-window answer."""
    config = _config(thresholds=D_HEAD + 1)
    prompt = rng.integers(0, TINY.vocab_size, size=40)
    served, = _serve(model, config, [prompt], max_new=4)
    assert all(layouts == {(12, True)} for layouts, _ in rows)
    assert served == list(generate(
        model, prompt, 4, backend=LongSightAttention(config).dense_fallback()))


def test_sessions_cross_both_layout_edges_while_decoding(model, rng, rows):
    """Contexts start inside sinks + window (D = 12) and end beyond
    D + top_k (16): each session changes layout twice mid-run, not in
    step with its neighbours."""
    config = _config()
    lengths = (7, 9, 10, 11)
    prompts = [rng.integers(0, TINY.vocab_size, size=n) for n in lengths]
    served = _serve(model, config, prompts, max_new=14)
    assert {layout for layouts, _ in rows for layout in layouts} \
        == {(12, False), (16, False), (12, True)}
    assert any(len(layouts) > 1 for layouts, _ in rows)   # mixed in one call
    for prompt, outputs in zip(prompts, served):
        assert outputs == list(generate(model, prompt, 14,
                                        backend=LongSightAttention(config)))


# -- the pooled layout's stack: stages 1-4 once for every long session ----------

def test_float16_pool_serves_what_generate_produces(rng, rows):
    """A reduced ``kv_dtype`` through the served path, every session in
    the pooled layout: survivors and selected values are upcast after the
    read (the context never is), on both sides alike."""
    half = dataclasses.replace(TINY, kv_dtype="float16")
    model = Transformer(half, seed=0)
    config = _config()
    prompts = [rng.integers(0, TINY.vocab_size, size=n)
               for n in (19, 26, 41, 57)]
    served = _serve(model, config, prompts, max_new=8)
    assert {layout for layouts, _ in rows for layout in layouts} \
        == {(12, True)}
    assert max(n for _, n in rows) == len(prompts)
    for prompt, outputs in zip(prompts, served):
        assert outputs == list(generate(model, prompt, 8,
                                        backend=LongSightAttention(config)))


def test_all_pass_fills_every_pool_of_the_stack(model, rng, rows, units):
    """Threshold 0 in the pooled layout: every candidate of every unit
    passes (so every unit scores its whole tile, none gathers) and every
    pool fills to ``top_k``."""
    config = _config(thresholds=0)
    lengths = (20, 33, 47)
    prompts = [rng.integers(0, TINY.vocab_size, size=n) for n in lengths]
    served = _serve(model, config, prompts, max_new=6)
    group = TINY.n_q_heads // TINY.n_kv_heads
    stacked = [(p, s) for p, s in units if len(p) == 2 * len(prompts)]
    assert stacked
    for passed, selected in units:
        assert (selected == group * config.top_k).all()
        assert (passed > selected).all()
    for prompt, outputs in zip(prompts, served):
        assert outputs == list(generate(model, prompt, 6,
                                        backend=LongSightAttention(config)))


def test_units_that_pass_nothing_ride_beside_units_that_pass(
        model, rng, rows, units):
    """A threshold only a full sign match meets: most units of a stack
    pass nothing (a whole pool of ``-inf``, no survivor to gather or
    score), some pass a key or two.  Every row stays finite (the ``rows``
    fixture) and the served tokens are solo ``generate``'s."""
    config = _config(thresholds=D_HEAD)
    lengths = (45, 52, 60, 38)
    prompts = [rng.integers(0, TINY.vocab_size, size=n) for n in lengths]
    served = _serve(model, config, prompts, max_new=10)
    mixed = [passed for passed, _ in units
             if (passed == 0).any() and (passed > 0).any()]
    assert mixed and max(len(passed) for passed in mixed) > 2
    for prompt, outputs in zip(prompts, served):
        assert outputs == list(generate(model, prompt, 10,
                                        backend=LongSightAttention(config)))
