"""A prefill query is a decode row.

Row *i* of a prefill block attends exactly as one decode query does at the
row's own context ``n_i = n_ctx - n_new + i + 1``: for every row of a block,
``LongSightAttention.forward_cached`` at one query over the same context,
truncated to that row, selects the same keys (``selection_capture``) and
returns the same output to round-off.  The rows cover a context below the
sinks, at ``D = n_sink + window``, at ``D + P`` and far above, in the first
block of a prompt and in a later one, at ``top_k = 0``, over a plain cache
and a non-contiguous paged one.

CI runs this file under ``OPENBLAS_NUM_THREADS=1`` as well.
"""

import numpy as np
import pytest

from repro.core.config import LongSightConfig
from repro.core.hybrid import LongSightAttention
from repro.llm.config import ModelConfig
from repro.llm.kv_cache import KVCache
from repro.serve.paged_kv import PagedKVPool

N_SINK, WINDOW, TOP_K = 4, 8, 6
D, P = N_SINK + WINDOW, TOP_K
MC = ModelConfig(name="prefill-rows", vocab_size=8, n_layers=1, n_q_heads=4,
                 n_kv_heads=2, head_dim=16, d_ff=8)
N_NEW = 32
#: (n_ctx, n_new): the first block of a prompt holds rows at n_i = 1
#: (below the sinks), D, D + P and past them; a later block only rows far
#: above D + P.
BLOCKS = {"first": (N_NEW, N_NEW), "later": (300, N_NEW)}


class _Caches:
    """Session caches of one kind; a paged session's blocks interleave with
    its own spacer session's, so its row map is not one run."""

    def __init__(self, kind: str) -> None:
        self.kind = kind
        self.pool = PagedKVPool(MC, n_blocks=400, block_tokens=4)
        self.spacers = {}

    def new(self, backend):
        if self.kind == "plain":
            cache = KVCache(MC)
        else:
            cache = self.pool.new_cache()
            self.spacers[id(cache)] = self.pool.new_cache()
        backend.prepare_cache(cache)
        return cache

    def append(self, cache, k, v) -> None:
        for t in range(k.shape[1]):
            cache.append(0, k[:, t:t + 1], v[:, t:t + 1])
            if self.kind == "paged":
                self.spacers[id(cache)].ensure_tokens(len(cache))


def _selected(capture, h, n_rows, n_ctx):
    """The captured ``(n_rows, n_ctx)`` selection of head ``h``; a call
    that had no sparse candidate captures nothing: no key was selected."""
    sel = capture.get((0, h))
    return np.zeros((n_rows, n_ctx), dtype=bool) if sel is None else sel


@pytest.mark.parametrize("kind", ("plain", "paged"))
@pytest.mark.parametrize("block", sorted(BLOCKS))
@pytest.mark.parametrize("top_k", (TOP_K, 0))
def test_every_prefill_row_equals_the_decode_row(kind, block, top_k):
    n_ctx, n_new = BLOCKS[block]
    rng = np.random.default_rng(n_ctx + top_k)
    k, v = rng.normal(size=(2, MC.n_kv_heads, n_ctx, MC.head_dim)
                      ).astype(np.float32)
    q = rng.normal(size=(MC.n_q_heads, n_new, MC.head_dim))
    backend = LongSightAttention(LongSightConfig(
        window=WINDOW, n_sink=N_SINK, top_k=top_k, thresholds=8))
    caches = _Caches(kind)

    whole = caches.new(backend)
    caches.append(whole, k, v)
    backend.selection_capture = {}
    prefill = backend.forward_cached(0, q, whole)
    prefill_sel = dict(backend.selection_capture)

    row_cache = caches.new(backend)
    caches.append(row_cache, k[:, :n_ctx - n_new], v[:, :n_ctx - n_new])
    if kind == "paged":
        assert not whole.contiguous
    n_i = np.arange(n_ctx - n_new, n_ctx) + 1
    if block == "first":
        assert {1, D, D + P} <= set(n_i.tolist()) and n_i.max() > D + P
    for i, n in enumerate(n_i.tolist()):
        caches.append(row_cache, k[:, n - 1:n], v[:, n - 1:n])
        backend.selection_capture = {}
        decode = backend.forward_cached(0, q[:, i:i + 1], row_cache)
        np.testing.assert_allclose(decode[:, 0], prefill[:, i], rtol=0,
                                   atol=1e-12, err_msg=f"row n_i={n}")
        for h in range(MC.n_q_heads):
            row_sel = _selected(prefill_sel, h, n_new, n_ctx)[i]
            np.testing.assert_array_equal(
                row_sel[:n], _selected(backend.selection_capture, h, 1, n)[0],
                err_msg=f"head {h}, row n_i={n}")
            assert not row_sel[n:].any()
    if kind == "paged":
        assert not row_cache.contiguous
