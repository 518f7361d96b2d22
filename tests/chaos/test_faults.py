"""Fault-plan, keyed-fault and fault-injector unit tests."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.drex.device import DrexDevice
from repro.errors import OffloadTimeoutError, QueueFullError
from repro.faults import (FAULT_KINDS, NMA_STALL_NS, FaultInjector, FaultPlan,
                          fault)

pytestmark = pytest.mark.chaos


class TestFaultPlan:
    def test_default_is_healthy(self):
        plan = FaultPlan.none()
        assert all(plan.rate(kind) == 0.0 for kind in FAULT_KINDS)

    def test_rate_validation(self):
        with pytest.raises(ValueError):
            FaultPlan(cxl_timeout_rate=1.5)
        with pytest.raises(ValueError):
            FaultPlan(queue_full_rate=-0.1)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            FaultPlan.none().rate("gamma_rays")

    def test_uniform_and_total_failure(self):
        uniform = FaultPlan.uniform(0.3, seed=9)
        for kind in ("queue_full", "response_buffer", "cxl_timeout",
                     "cxl_degraded", "nma_stall"):
            assert uniform.rate(kind) == 0.3
        assert uniform.rate("kso_corruption") == 0.0
        # The device gone: every offload times out, nothing else fires.
        total = FaultPlan(cxl_timeout_rate=1.0)
        assert [kind for kind in FAULT_KINDS if total.rate(kind)] \
            == ["cxl_timeout"]


class TestFaultInjector:
    def test_zero_rate_never_draws(self):
        """A zero-rate kind never fires and builds no generator, so plans
        that do not use a fault kind are unaffected by its injection
        point."""
        injector = FaultInjector(FaultPlan.none(seed=3))
        for kind in FAULT_KINDS:
            assert injector.fires(kind, (0, 5, 0)) is None
        assert injector.total_fired == 0

    def test_same_seed_same_sequence(self):
        """Answers are keyed by site: two injectors on one plan agree on
        every site, asked in opposite orders."""
        plan = FaultPlan.uniform(0.5, seed=11)
        a = FaultInjector(plan)
        b = FaultInjector(plan)
        sites = [(layer, p, attempt) for layer in range(2)
                 for p in range(25) for attempt in range(4)]
        seq_a = [a.fires("cxl_timeout", site) is not None for site in sites]
        seq_b = [b.fires("cxl_timeout", site) is not None
                 for site in reversed(sites)][::-1]
        assert seq_a == seq_b
        assert a.counts == b.counts
        assert 0 < a.counts["cxl_timeout"] < len(sites)

    def test_rate_one_always_fires(self):
        injector = FaultInjector(FaultPlan(cxl_timeout_rate=1.0))
        assert all(injector.fires("cxl_timeout", (0, p, 0)) is not None
                   for p in range(50))


#: a site: ``(layer, position)`` of a flush or ``(layer, position,
#: attempt)`` of an offload attempt.
_SITES = st.lists(st.integers(0, 4096), min_size=2, max_size=3).map(tuple)


@settings(max_examples=60, deadline=None)
@given(rates=st.lists(st.sampled_from([0.0, 0.1, 0.5, 1.0]),
                      min_size=len(FAULT_KINDS), max_size=len(FAULT_KINDS)),
       seed=st.integers(0, 2 ** 32), sites=st.lists(_SITES, max_size=12),
       data=st.data())
def test_keyed_answers_are_order_free(rates, seed, sites, data):
    """:func:`fault` is a function of (plan, kind, site): any permutation
    of a list of sites gets the same answers, the fault's own draws
    included, and a zero-rate kind never fires."""
    plan = FaultPlan(**{f"{kind}_rate": rate
                        for kind, rate in zip(FAULT_KINDS, rates)},
                     seed=seed)

    def answers(order):
        out = {}
        for site in order:
            for kind in FAULT_KINDS:
                rng = fault(plan, kind, site)
                out[kind, site] = None if rng is None \
                    else int(rng.integers(2 ** 32))
        return out

    asked = answers(sites)
    assert answers(data.draw(st.permutations(sites))) == asked
    for (kind, _), answer in asked.items():
        if plan.rate(kind) == 0.0:
            assert answer is None
        if plan.rate(kind) == 1.0:
            assert answer is not None


class TestFaultInjectingDevice:
    """A :class:`DrexDevice` built with a plan injects its faults."""

    def _device(self, plan, tiny_config):
        device = DrexDevice(tiny_config.n_layers, tiny_config.n_kv_heads,
                            tiny_config.n_q_heads, tiny_config.head_dim,
                            dtype_bytes=tiny_config.dtype_bytes, plan=plan)
        device.register_user(0)
        return device

    def _fill(self, device, tiny_config, n=16):
        for layer in range(tiny_config.n_layers):
            for kv_head in range(tiny_config.n_kv_heads):
                device.write_kv(0, layer, kv_head, n)

    def _request(self, tiny_config, n=16, seed=1):
        from repro.drex.descriptors import RequestDescriptor
        rng = np.random.default_rng(seed)
        return RequestDescriptor(
            uid=0, layer=0,
            queries=rng.normal(size=(tiny_config.n_q_heads,
                                     tiny_config.head_dim)),
            top_k=8, dtype_bytes=tiny_config.dtype_bytes,
            passed=rng.integers(0, n + 1, size=tiny_config.n_q_heads),
            survivors=rng.random(size=(tiny_config.n_kv_heads, n)) < 0.5)

    def test_timeout_injection(self, tiny_config):
        device = self._device(FaultPlan(cxl_timeout_rate=1.0), tiny_config)
        self._fill(device, tiny_config)
        with pytest.raises(OffloadTimeoutError):
            device.execute(self._request(tiny_config))

    def test_queue_full_injection(self, tiny_config):
        device = self._device(FaultPlan(queue_full_rate=1.0), tiny_config)
        self._fill(device, tiny_config)
        with pytest.raises(QueueFullError):
            device.execute(self._request(tiny_config))

    def test_latency_faults_distort_only_latency(self, tiny_config):
        healthy = self._device(FaultPlan.none(), tiny_config)
        stalled = self._device(
            FaultPlan(nma_stall_rate=1.0, cxl_degraded_rate=1.0),
            tiny_config)
        self._fill(healthy, tiny_config)
        self._fill(stalled, tiny_config)
        ok = healthy.execute(self._request(tiny_config))
        slow = stalled.execute(self._request(tiny_config))
        # Same work priced, distorted latency.
        assert slow.n_entries == ok.n_entries
        assert slow.latency.total_ns >= ok.latency.total_ns + NMA_STALL_NS

    def test_kso_corruption_persists_until_repaired(self, tiny_config):
        plan = FaultPlan(kso_corruption_rate=1.0)
        device = self._device(plan, tiny_config)
        self._fill(device, tiny_config)
        assert device.corrupted_ksos(0, 0) == []
        device.execute(self._request(tiny_config))
        bad = device.corrupted_ksos(0, 0)
        assert bad, "corruption should be detectable by checksum"
        for kv_head in bad:
            device.repack_kso(0, 0, kv_head)
        assert device.corrupted_ksos(0, 0) == []

    def test_corrupt_kso_flips_distinct_bits(self, tiny_config):
        device = self._device(FaultPlan.none(), tiny_config)
        self._fill(device, tiny_config)
        rng = np.random.default_rng(0)
        flips = device.corrupt_kso(0, 0, 0, rng, n_bits=5)
        assert flips == 5
        assert not device.kso_intact(0, 0, 0)
        # An empty store has no bit to flip and draws nothing.
        state = rng.bit_generator.state
        empty = self._device(FaultPlan.none(), tiny_config)
        assert empty.corrupt_kso(0, 0, 0, rng, n_bits=5) == 0
        assert rng.bit_generator.state == state
        assert empty.kso_intact(0, 0, 0)

    def test_a_bit_flipped_twice_passes_the_checksum(self, tiny_config):
        """Checksum state is the set of flipped bits: flipping the same
        bits again restores them, as a second DRAM disturbance would."""
        device = self._device(FaultPlan.none(), tiny_config)
        self._fill(device, tiny_config)
        device.corrupt_kso(0, 0, 1, np.random.default_rng(3), n_bits=4)
        assert device.corrupted_ksos(0, 0) == [1]
        device.corrupt_kso(0, 0, 1, np.random.default_rng(3), n_bits=4)
        assert device.corrupted_ksos(0, 0) == []
