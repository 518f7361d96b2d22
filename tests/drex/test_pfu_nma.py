"""PFU and NMA: the functional hardware reference and the timing models.

The functional units live in ``tests/drex/hardware_reference.py``: the
kernel's selection is checked against them here (PFU -> NMA selects what
``sparse_retrieve`` selects, and what ``LongSightAttention`` captures).
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import LongSightConfig
from repro.core.hybrid import LongSightAttention
from repro.core.itq import ItqRotations, random_rotation
from repro.core.scf import pack_signs, scf_filter
from repro.core.sparse import sparse_retrieve
from repro.core.topk import top_k_indices
from repro.drex.nma import NearMemoryAccelerator
from repro.drex.pfu import PimFilterUnit
from tests.conftest import TINY
from tests.drex.hardware_reference import (filter_block, offload,
                                           score_and_rank)


class TestPfu:
    def test_matches_reference_filter(self, rng):
        keys = rng.normal(size=(128, 64))
        queries = rng.normal(size=(4, 64))
        bitmap = filter_block(pack_signs(keys), pack_signs(queries),
                              head_dim=64, threshold=33)
        np.testing.assert_array_equal(bitmap, scf_filter(queries, keys, 33))

    def test_partial_block(self, rng):
        keys = rng.normal(size=(37, 16))
        queries = rng.normal(size=(1, 16))
        bitmap = filter_block(pack_signs(keys), pack_signs(queries), 16, 8)
        assert bitmap.shape == (1, 37)

    def test_limits_enforced(self, rng):
        keys = pack_signs(rng.normal(size=(129, 16)))
        queries = pack_signs(rng.normal(size=(1, 16)))
        with pytest.raises(ValueError):
            filter_block(keys, queries, 16, 0)
        keys = pack_signs(rng.normal(size=(10, 16)))
        queries = pack_signs(rng.normal(size=(17, 16)))
        with pytest.raises(ValueError):
            filter_block(keys, queries, 16, 0)

    def test_bitmap_latency_is_paper_constant(self):
        pfu = PimFilterUnit()
        assert pfu.bitmap_latency_ns(128) == pytest.approx(160.0)  # d x 1.25
        assert pfu.bitmap_latency_ns(64) == pytest.approx(80.0)


class TestNmaFunctional:
    def test_matches_per_query_topk(self, rng):
        queries = rng.normal(size=(4, 32))
        keys = rng.normal(size=(60, 32))
        result = score_and_rank(queries, keys, k=9)
        for g in range(4):
            expected = top_k_indices(keys @ queries[g], 9)
            np.testing.assert_array_equal(result.indices[g], expected)
            np.testing.assert_allclose(result.scores[g],
                                       (keys @ queries[g])[expected])

    def test_valid_mask_restricts_ranking(self, rng):
        queries = rng.normal(size=(2, 16))
        keys = rng.normal(size=(30, 16))
        mask = rng.random(size=(2, 30)) < 0.5
        result = score_and_rank(queries, keys, k=30, valid_mask=mask)
        for g in range(2):
            assert set(result.indices[g]) == set(np.flatnonzero(mask[g]))

    def test_empty_survivors(self, rng):
        result = score_and_rank(rng.normal(size=(3, 8)), np.empty((0, 8)),
                                k=5)
        assert all(len(idx) == 0 for idx in result.indices)

    def test_hardware_top_k_cap(self, rng):
        queries = rng.normal(size=(1, 8))
        keys = rng.normal(size=(2000, 8))
        result = score_and_rank(queries, keys, k=5000)
        assert len(result.indices[0]) == 1024  # hardware cap


@given(threshold=st.integers(min_value=0, max_value=TINY.head_dim + 1),
       k=st.integers(min_value=0, max_value=60),
       n_keys=st.integers(min_value=1, max_value=400),
       itq=st.booleans(),
       seed=st.integers(min_value=0, max_value=10_000))
@settings(max_examples=25, deadline=None)
def test_units_select_what_sparse_retrieve_selects(threshold, k, n_keys,
                                                   itq, seed):
    """PFU blocks -> NMA over the group's survivor union select, per
    query, exactly the reference pipeline's keys, in its order."""
    rng = np.random.default_rng(seed)
    rotation = random_rotation(TINY.head_dim, seed=seed) if itq else None
    keys = rng.normal(size=(n_keys, TINY.head_dim))
    queries = rng.normal(size=(TINY.gqa_group_size, TINY.head_dim))
    indices, survive = offload(queries, keys, threshold, k, rotation)
    for g, query in enumerate(queries):
        ref = sparse_retrieve(query, keys, threshold, k, rotation=rotation)
        np.testing.assert_array_equal(indices[g], ref.indices)
        assert int(survive[g].sum()) == ref.n_passed


@pytest.mark.parametrize("itq", [False, True])
@pytest.mark.parametrize("n_new", [1, 9])
def test_units_select_what_the_kernel_captures(rng, itq, n_new):
    """On a cache: each row's sparse span, filtered and ranked by the
    hardware units, is the key set the kernel's ``selection_capture``
    records for that row and head — for a decode row and a block."""
    config = LongSightConfig(window=8, n_sink=4, top_k=6, thresholds=9,
                             use_itq=itq)
    rotations = None
    if itq:
        rotations = ItqRotations(TINY.n_layers, TINY.n_kv_heads,
                                 TINY.head_dim)
        for kv_head in range(TINY.n_kv_heads):
            rotations.set(0, kv_head, random_rotation(TINY.head_dim,
                                                      seed=kv_head))
    n_ctx = 150
    k = rng.normal(size=(TINY.n_kv_heads, n_ctx, TINY.head_dim))
    v = rng.normal(size=k.shape)
    q = rng.normal(size=(TINY.n_q_heads, n_new, TINY.head_dim))
    kernel = LongSightAttention(config, rotations=rotations)
    kernel.selection_capture = {}
    kernel.forward(0, q, k, v)
    group = TINY.gqa_group_size
    for kv_head in range(TINY.n_kv_heads):
        rotation = rotations.get(0, kv_head) if itq else None
        heads = range(kv_head * group, (kv_head + 1) * group)
        for r in range(n_new):
            end = n_ctx - n_new + r + 1 - config.window
            indices, _ = offload(
                q[heads.start:heads.stop, r],
                k[kv_head, config.n_sink:end], 9, config.top_k, rotation)
            for g, h in enumerate(heads):
                captured = np.flatnonzero(kernel.selection_capture[(0, h)][r])
                np.testing.assert_array_equal(
                    captured, np.sort(indices[g]) + config.n_sink)


class TestNmaTiming:
    def test_scoring_memory_bound_regime(self):
        nma = NearMemoryAccelerator()
        # Many survivors, one query: streaming dominates.
        t = nma.scoring_latency_ns(n_survivors=100_000, head_dim=128,
                                   n_queries=1)
        bw = nma.timings.package_bandwidth(nma.geometry)
        expected = 100_000 * 128 * 2 / bw * 1e9
        assert t == pytest.approx(expected)

    def test_scoring_monotone(self):
        nma = NearMemoryAccelerator()
        a = nma.scoring_latency_ns(1000, 64, 4)
        b = nma.scoring_latency_ns(2000, 64, 4)
        assert b > a

    def test_bitmap_read_pipelines(self):
        nma = NearMemoryAccelerator()
        one = nma.bitmap_read_latency_ns(n_blocks=8)   # one per channel
        many = nma.bitmap_read_latency_ns(n_blocks=1024)
        assert one == pytest.approx(120.4)
        # 128 per channel: 120.4 + 127 x 4 ns, NOT 128 x 120.4.
        assert many == pytest.approx(120.4 + 127 * 4.0)

    def test_ranking_drain(self):
        nma = NearMemoryAccelerator()
        assert nma.ranking_latency_ns(1024) == pytest.approx(1024 / 1.6)
        assert nma.ranking_latency_ns(5000) == pytest.approx(1024 / 1.6)
