"""Baseline serving-system model tests (Figure 7's comparators)."""

import numpy as np
import pytest

from repro.llm.config import LLAMA3_1B, LLAMA3_8B
from repro.system.baselines import (
    AttAccSystem,
    DenseGpuSystem,
    ServingPoint,
    SlidingWindowGpuSystem,
)


class TestServingPoint:
    def test_derived_metrics(self):
        point = ServingPoint("x", "m", 1024, n_users=10,
                             token_latency_s=0.02, breakdown={})
        assert point.throughput_tps == pytest.approx(500.0)


class TestDenseGpu:
    def test_oom_detection(self):
        system = DenseGpuSystem(1)
        assert system.evaluate(LLAMA3_8B, 1_048_576, 1) is None
        assert system.evaluate(LLAMA3_8B, 8192, 1) is not None

    def test_latency_monotone_in_context(self):
        system = DenseGpuSystem(1)
        lats = [system.evaluate(LLAMA3_8B, c, 1).token_latency_s
                for c in (8192, 32768, 131072)]
        assert lats == sorted(lats)

    def test_latency_monotone_in_users(self):
        system = DenseGpuSystem(1)
        lats = [system.evaluate(LLAMA3_8B, 8192, u).token_latency_s
                for u in (1, 4, 16)]
        assert lats == sorted(lats)

    def test_throughput_improves_with_batching(self):
        """Weight amortization: 16 users must beat 16x a single user's
        latency budget."""
        system = DenseGpuSystem(1)
        one = system.evaluate(LLAMA3_8B, 8192, 1)
        sixteen = system.evaluate(LLAMA3_8B, 8192, 16)
        assert sixteen.throughput_tps > 4 * one.throughput_tps

    def test_two_gpus_double_capacity_and_throughput(self):
        one = DenseGpuSystem(1)
        two = DenseGpuSystem(2)
        assert two.max_users(LLAMA3_8B, 32768) == \
            2 * one.max_users(LLAMA3_8B, 32768)
        u = one.max_users(LLAMA3_8B, 32768)
        t1 = one.evaluate(LLAMA3_8B, 32768, u)
        t2 = two.evaluate(LLAMA3_8B, 32768, 2 * u)
        assert t2.throughput_tps == pytest.approx(2 * t1.throughput_tps,
                                                  rel=1e-6)

    def test_breakdown_sums_to_total(self):
        point = DenseGpuSystem(1).evaluate(LLAMA3_8B, 32768, 4)
        assert sum(point.breakdown.values()) == pytest.approx(
            point.token_latency_s)

    def test_needs_at_least_one_gpu(self):
        with pytest.raises(ValueError):
            DenseGpuSystem(0)


class TestAttAcc:
    def test_faster_than_gpu_at_same_point(self):
        gpu = DenseGpuSystem(1)
        attacc = AttAccSystem()
        a = gpu.evaluate(LLAMA3_8B, 131072, 3)
        b = attacc.evaluate(LLAMA3_8B, 131072, 3)
        assert b.token_latency_s < a.token_latency_s

    def test_same_capacity_as_gpu(self):
        assert AttAccSystem().max_users(LLAMA3_8B, 32768) == \
            DenseGpuSystem(1).max_users(LLAMA3_8B, 32768)

    def test_gemms_unchanged(self):
        gpu = DenseGpuSystem(1).evaluate(LLAMA3_8B, 32768, 4)
        attacc = AttAccSystem().evaluate(LLAMA3_8B, 32768, 4)
        assert attacc.breakdown["gemm_s"] == pytest.approx(
            gpu.breakdown["gemm_s"])
        assert attacc.breakdown["attention_s"] < gpu.breakdown["attention_s"]


class TestSlidingWindow:
    def test_latency_flat_beyond_window(self):
        system = SlidingWindowGpuSystem(window=1024)
        a = system.evaluate(LLAMA3_8B, 32768, 4)
        b = system.evaluate(LLAMA3_8B, 1_048_576, 4)
        assert a.token_latency_s == pytest.approx(b.token_latency_s)

    def test_capacity_unbounded_by_context(self):
        system = SlidingWindowGpuSystem(window=1024)
        assert system.max_users(LLAMA3_8B, 1_048_576) == \
            system.max_users(LLAMA3_8B, 32768)

    def test_short_context_is_dense(self):
        system = SlidingWindowGpuSystem(window=4096, n_sink=0)
        dense = DenseGpuSystem(1).evaluate(LLAMA3_8B, 2048, 2)
        windowed = system.evaluate(LLAMA3_8B, 2048, 2)
        assert windowed.token_latency_s == pytest.approx(
            dense.token_latency_s)
