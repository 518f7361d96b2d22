"""GPU roofline model tests."""

import numpy as np
import pytest

from repro.llm.config import LLAMA3_1B, LLAMA3_8B
from repro.system.baselines import DenseGpuSystem
from repro.system.gpu import GpuModel
from repro.system.specs import H100, GpuSpec


@pytest.fixture
def gpu():
    return GpuModel()


class TestRoofline:
    def test_weight_gemm_memory_bound_at_small_batch(self, gpu):
        """At batch 1 the GEMM time equals weight-streaming time."""
        t = gpu.weight_gemm_ns(LLAMA3_8B, 1)
        expected = gpu.layer_weight_bytes(LLAMA3_8B) / H100.hbm_bandwidth * 1e9
        assert t == pytest.approx(expected)

    def test_weight_gemm_compute_bound_at_huge_batch(self, gpu):
        t = gpu.weight_gemm_ns(LLAMA3_8B, 100_000)
        flops = 2 * gpu.layer_weight_bytes(LLAMA3_8B) / 2 * 100_000
        assert t == pytest.approx(flops / H100.flops * 1e9)

    def test_gemm_amortization(self, gpu):
        """Doubling users must far less than double GEMM time in the
        memory-bound regime — the batching benefit of Section 2.1."""
        t1 = gpu.weight_gemm_ns(LLAMA3_8B, 1)
        t16 = gpu.weight_gemm_ns(LLAMA3_8B, 16)
        assert t16 == pytest.approx(t1)

    def test_attention_no_amortization(self, gpu):
        """Attention traffic scales linearly with users (no KV reuse)."""
        t1 = gpu.dense_attention_ns(LLAMA3_8B, 1, 32768)
        t16 = gpu.dense_attention_ns(LLAMA3_8B, 16, 32768)
        assert t16 == pytest.approx(16 * t1)

    def test_attention_linear_in_context(self, gpu):
        a = gpu.dense_attention_ns(LLAMA3_8B, 1, 10_000)
        b = gpu.dense_attention_ns(LLAMA3_8B, 1, 20_000)
        assert b == pytest.approx(2 * a)

    def test_bandwidth_override(self, gpu):
        base = gpu.dense_attention_ns(LLAMA3_8B, 1, 32768)
        pim = gpu.dense_attention_ns(LLAMA3_8B, 1, 32768,
                                     bandwidth_override=4 * H100.hbm_bandwidth)
        assert pim == pytest.approx(base / 4)

    def test_itq_is_small(self, gpu):
        """Section 5.4: ITQ under 3% of the QKV projection cost."""
        itq = gpu.itq_ns(LLAMA3_8B, 64)
        qkv = gpu.weight_gemm_ns(LLAMA3_8B, 64)
        assert itq < 0.03 * qkv


class TestCapacity:
    def test_weight_bytes_match_model_size(self, gpu):
        assert gpu.weight_bytes(LLAMA3_8B) == pytest.approx(
            LLAMA3_8B.n_params() * 2, rel=0.05)

    def test_fits_boundary(self):
        system = DenseGpuSystem(1)
        assert system.admits(LLAMA3_8B, [8192])
        assert not system.admits(LLAMA3_8B, [1_048_576])  # 128 GB of KV

    def test_max_users_consistent_with_fits(self):
        system = DenseGpuSystem(1)
        for context in (8192, 131072):
            users = system.max_users(LLAMA3_8B, context)
            assert system.admits(LLAMA3_8B, [context] * users)
            assert not system.admits(LLAMA3_8B, [context] * (users + 1))

    def test_max_users_zero_when_weights_dont_fit(self):
        tiny_gpu = GpuSpec(name="tiny", tflops=1, hbm_bytes=8 * 1024**3,
                           hbm_bandwidth=1e12)
        system = DenseGpuSystem(1, spec=tiny_gpu)
        assert system.max_users(LLAMA3_8B, 1024) == 0
        assert not system.admits(LLAMA3_8B, [])

    def test_1b_supports_longer_contexts(self):
        assert DenseGpuSystem(1).max_users(LLAMA3_1B, 1_048_576) >= 2
