"""The assembled DReX device: offload pricing, the DCC and the allocator.

The device holds no K/V: it prices each offload from the survivor counts
its Request Descriptor carries.  The offload backend fills those from the
kernel's stage 1, and they must equal what the hardware units
(``tests/drex/hardware_reference.py``) filter from the same keys.
"""

import numpy as np
import pytest

from repro.core.config import LongSightConfig
from repro.core.itq import ItqRotations, random_rotation
from repro.drex.backend import DrexOffloadBackend
from repro.drex.descriptors import RequestDescriptor
from repro.drex.device import DrexDevice
from repro.drex.timing import OffloadCost
from repro.llm.kv_cache import KVCache
from repro.llm.model import Transformer
from tests.conftest import TINY
from tests.drex.hardware_reference import offload


@pytest.fixture
def device():
    dev = DrexDevice(TINY.n_layers, TINY.n_kv_heads, TINY.n_q_heads,
                     TINY.head_dim)
    dev.register_user(0)
    return dev


def _populate(device, n=300, layer=0, uid=0):
    for head in range(TINY.n_kv_heads):
        device.write_kv(uid, layer, head, n)


def _request(rng, n_keys, layer=0, top_k=8, n_tokens=None, uid=0):
    """A request whose filter counts are drawn at random for ``n_keys``
    stored keys per KV head."""
    shape = (TINY.n_q_heads,) if n_tokens is None \
        else (TINY.n_q_heads, n_tokens)
    return RequestDescriptor(
        uid=uid, layer=layer, top_k=top_k,
        queries=rng.normal(size=shape + (TINY.head_dim,)),
        passed=rng.integers(0, n_keys + 1, size=shape),
        survivors=rng.random(size=(TINY.n_kv_heads, n_keys)) < 0.3)


def _priced_requests(threshold, top_k, rotations=None):
    """Every request an offload backend submits while prefilling, with
    the layer keys it filtered."""
    config = LongSightConfig(window=8, n_sink=4, top_k=top_k,
                             thresholds=threshold,
                             use_itq=rotations is not None)
    backend = DrexOffloadBackend(TINY, config, rotations=rotations)
    submitted = []
    execute = backend.device.execute

    def spy(request, *site):
        submitted.append(request)
        return execute(request, *site)

    backend.device.execute = spy
    cache = KVCache(TINY)
    tokens = np.random.default_rng(21).integers(0, TINY.vocab_size, size=60)
    Transformer(TINY, seed=5).prefill(tokens, cache, backend=backend,
                                      block_size=16)
    assert submitted and len(submitted) == backend.n_offloads
    return config, submitted, cache


class TestEquivalence:
    """What the kernel reports is what the PFUs would filter."""

    def _check(self, threshold, top_k, rotations=None):
        config, submitted, cache = _priced_requests(threshold, top_k,
                                                    rotations)
        group = TINY.gqa_group_size
        for request in submitted:
            keys = cache.layers[request.layer].keys
            for kv_head in range(TINY.n_kv_heads):
                stored = request.survivors[kv_head]
                heads = slice(kv_head * group, (kv_head + 1) * group)
                rotation = None if rotations is None \
                    else rotations.get(request.layer, kv_head)
                _, survive = offload(
                    request.queries[heads],
                    keys[kv_head, config.n_sink:config.n_sink + len(stored)],
                    threshold, top_k, rotation)
                np.testing.assert_array_equal(stored, survive.any(axis=0))
                np.testing.assert_array_equal(request.passed[heads],
                                              survive.sum(axis=1))

    @pytest.mark.parametrize("threshold", [0, 6, 8, 12, 16])
    def test_matches_reference_pipeline(self, threshold):
        self._check(threshold, top_k=17)

    def test_matches_reference_with_itq(self):
        rotations = ItqRotations(TINY.n_layers, TINY.n_kv_heads,
                                 TINY.head_dim)
        for layer in range(TINY.n_layers):
            for head in range(TINY.n_kv_heads):
                rotations.set(layer, head,
                              random_rotation(TINY.head_dim,
                                              seed=layer * 7 + head))
        self._check(9, top_k=9, rotations=rotations)

    def test_costs_follow_the_slice_chain(self, device, rng):
        """One OffloadCost per slice; survivors split by slice, retrieved
        keys shared in proportion, the response sized by them."""
        _populate(device, n=300)
        request = _request(rng, 300, top_k=5)
        costs = device._package_costs(request, 1)
        group = TINY.gqa_group_size
        passed = request.passed[group:2 * group]
        survivors = request.survivors[1]
        assert costs == [OffloadCost(
            n_keys=300, n_survivors=int(survivors.sum()),
            n_retrieved=int(round(min(5, passed.mean()))),
            n_query_heads=group, head_dim=TINY.head_dim, top_k=5,
            dtype_bytes=device.dtype_bytes)]
        response = device.execute(request)
        assert response.n_entries == sum(
            c.n_retrieved * c.n_query_heads
            for kv_head in range(TINY.n_kv_heads)
            for c in device._package_costs(request, kv_head))

    def test_incremental_writes_match_bulk(self, rng):
        """Appending in odd-sized chunks must not change the slice chains
        or the price of an offload."""
        bulk = DrexDevice(TINY.n_layers, TINY.n_kv_heads, TINY.n_q_heads,
                          TINY.head_dim)
        inc = DrexDevice(TINY.n_layers, TINY.n_kv_heads, TINY.n_q_heads,
                         TINY.head_dim)
        bulk.register_user(0)
        inc.register_user(0)
        for head in range(TINY.n_kv_heads):
            bulk.write_kv(0, 0, head, 200)
            for start in range(0, 200, 37):
                inc.write_kv(0, 0, head, min(37, 200 - start))
        request = _request(rng, 200, top_k=11)
        assert bulk.execute(request).latency == inc.execute(request).latency
        for head in range(TINY.n_kv_heads):
            assert [s.n_keys for s in bulk._chain(0, 0, head)] \
                == [s.n_keys for s in inc._chain(0, 0, head)]


class TestBookkeeping:
    def test_empty_store_returns_empty_heads(self, device, rng):
        """Nothing stored: nothing retrieved, only the descriptor write."""
        queries = rng.normal(size=(TINY.n_q_heads, TINY.head_dim))
        response = device.execute(RequestDescriptor(uid=0, layer=2,
                                                    queries=queries))
        assert response.n_entries == 0
        assert response.latency.total_ns == device.timing.request_submit_ns(
            TINY.n_q_heads, TINY.head_dim, device.dtype_bytes)

    def test_context_length_tracking(self, device):
        assert device.context_length(0, 0, 0) == 0
        _populate(device, n=150)
        assert device.context_length(0, 0, 0) == 150

    def test_latency_attached(self, device, rng):
        _populate(device)
        response = device.execute(_request(rng, 300, top_k=5))
        assert response.latency is not None
        assert response.latency.total_ns > 0
        assert response.latency.score_ns >= 0

    def test_evict_user_frees_everything(self, device, rng):
        _populate(device)
        device.corrupt_kso(0, 0, 1, rng, n_bits=2)
        assert device.allocator.bytes_used > 0
        device.evict_user(0)
        assert device.allocator.bytes_used == 0
        assert device.context_length(0, 0, 0) == 0
        assert device.flipped == {}

    def test_write_validation(self, device):
        with pytest.raises(ValueError):
            device.write_kv(0, 0, 0, -1)

    def test_survivor_bitmap_must_cover_the_store(self, device, rng):
        _populate(device, n=50)
        with pytest.raises(ValueError):
            device.execute(_request(rng, 49))
        request = _request(rng, 50)
        request.survivors = None
        with pytest.raises(ValueError):
            device.execute(request)

    def test_query_shape_validation(self, device, rng):
        _populate(device, n=50)
        request = _request(rng, 50)
        request.queries = rng.normal(size=(TINY.n_q_heads + 1,
                                           TINY.head_dim))
        with pytest.raises(ValueError):
            device.execute(request)

    def test_group_limit(self, device, rng):
        _populate(device, n=50)
        # 8 tokens x group 2 = 16 queries: at the PFU limit -> fine.
        device.execute(_request(rng, 50, n_tokens=8))
        with pytest.raises(ValueError):
            device.execute(_request(rng, 50, n_tokens=9))
