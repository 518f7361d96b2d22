"""Prefill runs the final layer only for the row that is read.

``Transformer.prefill`` takes every block through layers ``0 .. L-2``,
leaves only the final layer's K/V rows in the cache, and sends the last
position alone through the final layer as a decode row.  Pinned here:

- the cache of **every** layer (K, V and the packed sign store) is
  bit-identical to an all-rows pass — ``_layer`` over every position of
  every layer, built in this file the way prefill used to run;
- the returned logits equal that pass's last row (and
  ``forward_full``'s) to round-off, argmax included;
- a prompt prefilled in block-aligned chunks returns the *same bits* as
  one call — the read row's arithmetic no longer depends on the block it
  sat in;
- a served session's first token is solo ``generate``'s.

CI runs this file under the default BLAS thread count and under
``OPENBLAS_NUM_THREADS=1``: the read row is a ``_tile_matmul`` product.
"""

import dataclasses
import functools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import LongSightConfig
from repro.core.hybrid import LongSightAttention, SlidingWindowAttention
from repro.llm.kv_cache import KVCache
from repro.llm.model import DenseBackend, Transformer
from repro.llm.sampling import generate
from repro.serve.engine import ServeEngine
from repro.serve.paged_kv import PagedKVCache, PagedKVPool
from repro.serve.scheduler import ServeRequest
from tests.conftest import TINY

#: Model block of these tests: small, so three blocks stay cheap.
BLOCK = 8
LS = LongSightConfig(window=6, n_sink=2, top_k=4, thresholds=3)
BACKENDS = {
    "longsight": lambda: LongSightAttention(LS),
    "dense": DenseBackend,
    "window": lambda: SlidingWindowAttention(window=6, n_sink=2),
}
MODELS = {n_layers: Transformer(dataclasses.replace(TINY, n_layers=n_layers),
                                seed=11)
          for n_layers in (1, 3)}


def _new_cache(model, paged: bool):
    if not paged:
        return KVCache(model.config)
    return PagedKVCache(PagedKVPool(model.config, n_blocks=16,
                                    block_tokens=BLOCK))


def _all_rows_prefill(model, tokens, cache, backend) -> np.ndarray:
    """Every layer over every position, then read one row: the reference."""
    start0 = len(cache)
    cache.reserve(start0 + len(tokens))
    backend.prepare_cache(cache)
    attend = functools.partial(model._attend, cache=cache, backend=backend)
    for start in range(0, len(tokens), BLOCK):
        x = model.weights["embed"][tokens[start:start + BLOCK]]
        positions = start0 + np.arange(start, start + len(x))
        for layer in range(model.config.n_layers):
            x = model._layer(layer, x, positions, attend)
    return model._unembed(x[-1:])[0]


def _chunked(prefill, tokens, splits):
    """``prefill`` over ``tokens`` cut at ``splits``; the last logits."""
    for lo, hi in zip([0] + splits, splits + [len(tokens)]):
        logits = prefill(tokens[lo:hi])
    return logits


def _assert_same_store(cache, reference):
    assert len(cache) == len(reference)
    assert cache.sign_cache_enabled == reference.sign_cache_enabled
    for layer, (kv, ref) in enumerate(zip(cache.layers, reference.layers)):
        np.testing.assert_array_equal(kv.keys, ref.keys, err_msg=f"K {layer}")
        np.testing.assert_array_equal(kv.values, ref.values,
                                      err_msg=f"V {layer}")
        if cache.sign_cache_enabled:
            np.testing.assert_array_equal(kv.packed_signs, ref.packed_signs,
                                          err_msg=f"signs {layer}")


def _assert_same_logits(logits, reference):
    np.testing.assert_allclose(logits, reference, rtol=1e-12, atol=1e-13)
    assert int(np.argmax(logits)) == int(np.argmax(reference))


@pytest.mark.parametrize("backend_name", sorted(BACKENDS))
@pytest.mark.parametrize("n_layers", sorted(MODELS))
@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_cache_and_logits_equal_all_rows_pass(n_layers, backend_name, data):
    model = MODELS[n_layers]
    # Whole blocks often: the read row is then a block's last row.
    n = data.draw(st.one_of(st.sampled_from([BLOCK, 2 * BLOCK, 3 * BLOCK]),
                            st.integers(1, 3 * BLOCK)), label="tokens")
    boundaries = list(range(BLOCK, n, BLOCK))
    splits = sorted(data.draw(st.sets(st.sampled_from(boundaries)),
                              label="splits")) if boundaries else []
    paged = data.draw(st.booleans(), label="paged")
    seed = data.draw(st.integers(0, 2 ** 32 - 1), label="seed")
    tokens = np.random.default_rng(seed).integers(
        0, model.config.vocab_size, size=n)
    make = BACKENDS[backend_name]

    reference = KVCache(model.config)
    expected = _all_rows_prefill(model, tokens, reference, make())

    whole = _new_cache(model, paged)
    logits = model.prefill(tokens, whole, backend=make(), block_size=BLOCK)
    _assert_same_store(whole, reference)
    _assert_same_logits(logits, expected)
    _assert_same_logits(
        logits, model.forward_full(tokens, make(), block_size=BLOCK)[-1])

    backend = make()
    pieces = _new_cache(model, paged)
    chunked = _chunked(
        lambda segment: model.prefill(segment, pieces, backend=backend,
                                      block_size=BLOCK), tokens, splits)
    _assert_same_store(pieces, reference)
    np.testing.assert_array_equal(chunked, logits)


@pytest.mark.parametrize("n_layers", sorted(MODELS))
@pytest.mark.parametrize("n_blocks", [1, 2])
def test_prefix_attach_that_leaves_one_token(n_layers, n_blocks, rng):
    """The engine's ``attach_prefix(target[:-1])`` cap at its tightest:
    the whole prompt but its last token is attached, prefill gets one."""
    model = MODELS[n_layers]
    backend = LongSightAttention(LS)
    tokens = rng.integers(0, model.config.vocab_size,
                          size=n_blocks * BLOCK + 1)
    pool = PagedKVPool(model.config, n_blocks=16, block_tokens=BLOCK,
                       prefix_caching=True)
    first = PagedKVCache(pool)
    logits = model.prefill(tokens, first, backend=backend, block_size=BLOCK)
    first.publish_prefix(tokens)

    def attached(prefill):
        cache = PagedKVCache(pool)
        assert cache.attach_prefix(tokens[:-1]) == len(tokens) - 1
        return cache, prefill(tokens[-1:], cache)

    reference, expected = attached(functools.partial(
        _all_rows_prefill, model, backend=backend))
    cache, tail_logits = attached(functools.partial(
        model.prefill, backend=backend, block_size=BLOCK))
    _assert_same_store(cache, reference)
    _assert_same_store(cache, first)
    _assert_same_logits(tail_logits, expected)
    # The unattached run's last block was this one token too.
    np.testing.assert_array_equal(tail_logits, logits)


def test_final_layer_attention_sees_one_query_per_prefill(rng):
    """What ``FilterStats`` / ``selection_capture`` / ``attention.*``
    record under ``prefill``: every query of the lower layers, one query
    per call of the final layer.  ``forward_full`` records all rows."""
    model = MODELS[3]
    tokens = rng.integers(0, model.config.vocab_size, size=2 * BLOCK + 3)
    seen = []

    class Spy(DenseBackend):
        def forward(self, layer, q, k, v):
            seen.append((layer, q.shape[1], k.shape[1]))
            return super().forward(layer, q, k, v)

    model.prefill(tokens, KVCache(model.config), backend=Spy(),
                  block_size=BLOCK)
    n = len(tokens)
    lower = [(layer, min(BLOCK, n - start), min(start + BLOCK, n))
             for start in range(0, n, BLOCK) for layer in (0, 1)]
    assert seen == lower + [(2, 1, n)]
    seen.clear()
    model.forward_full(tokens, Spy(), block_size=BLOCK)
    assert sum(rows for layer, rows, _ in seen if layer == 2) == n


def test_empty_prompt_is_a_value_error():
    model = MODELS[1]
    cache = KVCache(model.config)
    with pytest.raises(ValueError, match="at least one token"):
        model.prefill(np.array([], dtype=np.int64), cache)
    assert len(cache) == 0


@pytest.mark.parametrize("backend_name", sorted(BACKENDS))
def test_served_first_token_is_solo_generates(backend_name, rng):
    """Through the engine's chunked prefill (256-row model blocks, prefix
    attach on) against solo ``generate``'s one-call prefill."""
    model = MODELS[3]
    make = BACKENDS[backend_name]
    shared = rng.integers(0, model.config.vocab_size, size=256)
    prompts = [rng.integers(0, model.config.vocab_size, size=n)
               for n in (1, 5, 256, 300, 513)]
    prompts += [np.concatenate([shared, tail]) for tail in
                (prompts[0], prompts[1], prompts[1])]
    pool = PagedKVPool(model.config, n_blocks=256, block_tokens=16,
                       prefix_caching=True)
    engine = ServeEngine(model, pool, lambda request: make())
    requests = [ServeRequest(request_id=i, prompt=p, max_new_tokens=3)
                for i, p in enumerate(prompts)]
    engine.run(requests)
    assert pool.prefix_hits > 0
    for request in requests:
        solo = generate(model, request.prompt, 3, backend=make())
        assert request.outputs == list(solo), request.request_id
