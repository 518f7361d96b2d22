"""A decode row's arithmetic is batch-invariant, by construction.

Two layers of the same property:

- the helper: row ``i`` of ``_tile_matmul(x, w)`` is a function of
  ``x[i]`` and ``w`` only — not of how many rows ride along, where the
  row sits, or what its neighbours hold.  Plain ``x @ w`` does *not* have
  this property (M = 1 is a GEMV, and small-M GEMMs block K = 512
  differently from large-M ones), which ``test_plain_matmul_is_not_...``
  keeps on record;
- the model: ``decode_step_batch`` logits equal ``decode_step`` logits bit
  for bit, per session, for ragged contexts, plain and paged caches,
  mixed backends and a reduced ``kv_dtype``.

CI runs this file twice, under the default BLAS thread count and under
``OPENBLAS_NUM_THREADS=1`` (the serving ledger pins one thread).
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import LongSightConfig
from repro.core.hybrid import LongSightAttention, SlidingWindowAttention
from repro.llm.config import ModelConfig
from repro.llm.kv_cache import KVCache
from repro.llm.model import DenseBackend, Transformer, _ROW_TILE, _tile_matmul
from repro.serve.paged_kv import PagedKVCache, PagedKVPool
from repro.serve.scheduler import SloPolicy
from tests.conftest import TINY

#: The serving ledger's model (``perf/workloads.py``): K = 512 at
#: ``w_down`` is where plain small-M GEMMs stop being row-invariant.
LEDGER = ModelConfig(name="ledger", vocab_size=512, n_layers=2, n_q_heads=8,
                     n_kv_heads=2, head_dim=32, d_ff=512, qk_bias=True)
MAX_ROWS = 2 * SloPolicy().max_decode_batch + 1


def _weight_shapes(config: ModelConfig) -> dict:
    """One weight of every (K, N) shape a decode step multiplies by."""
    weights = Transformer(config, seed=5).weights
    assert config.tie_embeddings
    return {
        "wq": weights["wq.0"], "wk": weights["wk.0"],
        "wo": weights["wo.0"], "w_up": weights["w_up.0"],
        "w_down": weights["w_down.0"],
        "embed.T": weights["embed"].T,       # tied head: not contiguous
    }


WEIGHTS = {f"{config.name}:{name}": w
           for config in (TINY, LEDGER)
           for name, w in _weight_shapes(config).items()}


def _solo_rows(x: np.ndarray, w: np.ndarray, matmul) -> np.ndarray:
    return np.stack([matmul(row[None, :], w)[0] for row in x])


def _mismatched_rows(x: np.ndarray, w: np.ndarray, matmul) -> int:
    solo = _solo_rows(x, w, matmul)
    return int((matmul(x, w) != solo).any(axis=1).sum())


@pytest.mark.parametrize("name", sorted(WEIGHTS))
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_row_product_independent_of_batch_and_position(name, data):
    w = WEIGHTS[name]
    n = data.draw(st.integers(1, MAX_ROWS), label="n")
    seed = data.draw(st.integers(0, 2 ** 32 - 1), label="seed")
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(n, w.shape[0]))
    solo = _solo_rows(x, w, _tile_matmul)
    np.testing.assert_array_equal(_tile_matmul(x, w), solo)
    # Same rows, another order, other neighbours, another batch size.
    order = rng.permutation(n)
    extra = rng.normal(size=(data.draw(st.integers(0, MAX_ROWS), label="extra"),
                             w.shape[0]))
    shuffled = _tile_matmul(np.concatenate([extra, x[order]]), w)
    np.testing.assert_array_equal(shuffled[len(extra):], solo[order])


def test_property_covers_k_512():
    assert any(w.shape[0] == 512 for w in WEIGHTS.values())
    assert MAX_ROWS > 2 * _ROW_TILE


#: One tile short, one, one and a row, two, two and a row.
TILE_EDGES = (1, _ROW_TILE - 1, _ROW_TILE, _ROW_TILE + 1, 2 * _ROW_TILE,
              2 * _ROW_TILE + 1)


@pytest.mark.parametrize("name", sorted(WEIGHTS))
def test_rows_at_tile_edges_equal_each_row_alone(name, rng):
    """Batches that fill one tile, cross into a second and fill two: each
    row equals its product alone, at every offset of a 17-row batch."""
    w = WEIGHTS[name]
    assert TILE_EDGES == (1, 7, 8, 9, 16, 17)
    x = rng.normal(size=(max(TILE_EDGES), w.shape[0]))
    solo = _solo_rows(x, w, _tile_matmul)
    for n in TILE_EDGES:
        for start in sorted({0, 1, max(TILE_EDGES) - n}):
            np.testing.assert_array_equal(
                _tile_matmul(x[start:start + n], w), solo[start:start + n],
                err_msg=f"{n} rows from row {start}")


def test_helper_handles_no_rows_and_strided_rows(rng):
    w = WEIGHTS["ledger:w_down"]
    assert _tile_matmul(np.empty((0, 512)), w).shape == (0, 256)
    wide = rng.normal(size=(7, 1024))
    np.testing.assert_array_equal(
        _tile_matmul(wide[:, ::2], w),
        _tile_matmul(np.ascontiguousarray(wide[:, ::2]), w))


def test_non_finite_row_stays_in_its_row(rng):
    """A NaN/inf row poisons only itself; pad rows are zeros, never
    uninitialised memory."""
    w = WEIGHTS["ledger:wq"]
    x = rng.normal(size=(_ROW_TILE + 1, w.shape[0]))
    clean = _tile_matmul(x, w)
    x[1, 3] = np.nan
    x[_ROW_TILE - 1, 0] = np.inf
    dirty = _tile_matmul(x, w)
    keep = [i for i in range(len(x)) if i not in (1, _ROW_TILE - 1)]
    np.testing.assert_array_equal(dirty[keep], clean[keep])
    assert not np.isfinite(dirty[1]).any()


def test_plain_matmul_is_not_batch_invariant(rng):
    """The reason the helper exists: swap it for ``x @ w`` and the
    property above fails (GEMV vs GEMM, and K = 512 blocking)."""
    w = WEIGHTS["ledger:w_down"]
    x = rng.normal(size=(MAX_ROWS, w.shape[0]))
    assert _mismatched_rows(x, w, np.matmul) > 0
    assert _mismatched_rows(x, w, _tile_matmul) == 0


# -- the model: decode_step_batch == decode_step, bit for bit -------------------

LS = LongSightConfig(window=8, n_sink=2, top_k=4, thresholds=3)
#: Inside sinks + window, at its edge, and well beyond it.
CONTEXTS = (3, 7, 10, 11, 24, 40, 57)


def _assert_batch_equals_solo(model, sessions, steps=3):
    """``sessions``: list of (make_twin_caches, backend).  Each session
    gets two identical caches; one is stepped alone, one in the batch."""
    solo_caches, batch_caches, backends, tokens = [], [], [], []
    for index, (twins, backend) in enumerate(sessions):
        a, b = twins
        solo_caches.append(a)
        batch_caches.append(b)
        backends.append(backend)
        tokens.append((5 * index + 1) % model.config.vocab_size)
    for _ in range(steps):
        batch = model.decode_step_batch(tokens, batch_caches, backends)
        assert len(batch) == len(sessions)
        for i, (cache, backend) in enumerate(zip(solo_caches, backends)):
            solo = model.decode_step(tokens[i], cache, backend=backend)
            np.testing.assert_array_equal(batch[i], solo,
                                          err_msg=f"session {i}")
            tokens[i] = int(np.argmax(solo))


def _plain_twins(model, backend, length, rng):
    prompt = rng.integers(0, model.config.vocab_size, size=length)
    twins = []
    for _ in range(2):
        cache = KVCache(model.config)
        model.prefill(prompt, cache, backend=backend)
        twins.append(cache)
    return twins


@pytest.mark.parametrize("n_sessions", sorted({2, 3, *TILE_EDGES}))
def test_batch_logits_equal_solo_logits(n_sessions, rng):
    model = Transformer(TINY, seed=7)
    backend = LongSightAttention(LS)
    sessions = [(_plain_twins(model, backend,
                              CONTEXTS[i % len(CONTEXTS)], rng), backend)
                for i in range(n_sessions)]
    _assert_batch_equals_solo(model, sessions)


#: Ledger contexts: short panels, the sparse span below and above
#: ``n_sink + window + top_k`` (272), and a pooled row.
LEDGER_CONTEXTS = (20, 150, 33, 400, 97, 64, 150, 271, 273, 145, 60, 200,
                   272, 30, 144, 90)


def _ledger_sessions(n_sessions, rng):
    model = Transformer(LEDGER, seed=0)
    backend = LongSightAttention(
        LongSightConfig(window=128, n_sink=16, top_k=128, thresholds=20))
    return model, [(_plain_twins(model, backend, length, rng), backend)
                   for length in LEDGER_CONTEXTS[:n_sessions]]


def test_ledger_geometry_batch_equals_solo(rng):
    _assert_batch_equals_solo(*_ledger_sessions(7, rng), steps=2)


@pytest.mark.parametrize("n_sessions", [9, 16])
def test_ledger_geometry_across_tiles(n_sessions, rng):
    """One tile and a row, and two whole tiles, at the ledger's model."""
    _assert_batch_equals_solo(*_ledger_sessions(n_sessions, rng), steps=2)


def test_mixed_backends_in_one_batch(rng, stacked_calls):
    model = Transformer(TINY, seed=7)
    longsight = LongSightAttention(LS)
    brownout = longsight.with_config(
        dataclasses.replace(LS, top_k=2, thresholds=5))
    # The engine's real shape: one backend instance per request, all
    # built from the same config — distinct, but they stack.
    twin = LongSightAttention(LS)
    # The sliding-window baseline is the same kernel at top_k = 0.
    sliding = SlidingWindowAttention(window=8, n_sink=2)
    backends = [DenseBackend(), longsight, brownout, sliding, longsight,
                twin]
    sessions = []
    for i, backend in enumerate(backends):
        # A brownout variant reads the cache its parent backend filled.
        fill = longsight if backend is brownout else backend
        sessions.append((_plain_twins(model, fill, CONTEXTS[-1 - i], rng),
                         backend))
    # Record from here: each fill ended in a one-query final-layer row.
    stacked_calls.clear()
    _assert_batch_equals_solo(model, sessions)
    # Per layer of a batched step: ``longsight`` twice and ``twin`` in one
    # call, the variant and the sliding window each in their own; the solo
    # steps are one session each.
    batched = [(config, n)
               for config, _, n in stacked_calls[:3 * TINY.n_layers]]
    assert batched == [(LS, 3), (brownout.config, 1),
                       (sliding.config, 1)] * TINY.n_layers
    assert {n for _, _, n in stacked_calls} == {1, 3}


def test_paged_caches_after_prefix_attach(rng):
    model = Transformer(TINY, seed=7)
    backend = LongSightAttention(LS)
    pool = PagedKVPool(TINY, n_blocks=64, block_tokens=4,
                       prefix_caching=True)
    shared = rng.integers(0, TINY.vocab_size, size=16)
    attached = []

    def paged(prompt):
        cache = PagedKVCache(pool)
        done = cache.attach_prefix(prompt)
        attached.append(done)
        model.prefill(prompt[done:], cache, backend=backend)
        cache.publish_prefix(prompt)
        return cache

    sessions = []
    for tail in (5, 1, 22, 9, 13):
        prompt = np.concatenate(
            [shared, rng.integers(0, TINY.vocab_size, size=tail)])
        sessions.append(([paged(prompt), paged(prompt)], backend))
    assert max(attached) >= len(shared)      # shared blocks really in use
    # One plain cache in the same batch: cache kinds mix too.
    sessions.append((_plain_twins(model, backend, 30, rng), backend))
    _assert_batch_equals_solo(model, sessions)


def test_float16_kv_dtype(rng):
    config = dataclasses.replace(TINY, kv_dtype="float16")
    model = Transformer(config, seed=7)
    backend = LongSightAttention(LS)
    sessions = [(_plain_twins(model, backend, length, rng), backend)
                for length in (6, 40, 19, 11, 33)]
    _assert_batch_equals_solo(model, sessions)


def test_empty_batch_returns_empty_list():
    model = Transformer(TINY, seed=7)
    assert model.decode_step_batch([], []) == []
    assert model.decode_step_batch([], [], LongSightAttention(LS)) == []
    with pytest.raises(ValueError):
        model.decode_step_batch([1], [])
