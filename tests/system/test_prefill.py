"""Prefill cost model tests."""

import pytest

from repro.core.config import LongSightConfig
from repro.llm.config import LLAMA3_8B
from repro.system.prefill import PrefillModel

LS = LongSightConfig(window=1024, n_sink=16, top_k=1024)


@pytest.fixture
def model():
    return PrefillModel()


def test_gemm_linear_in_prompt(model):
    a = model.gpu_gemm_s(LLAMA3_8B, 10_000)
    b = model.gpu_gemm_s(LLAMA3_8B, 20_000)
    assert b == pytest.approx(2 * a, rel=0.01)


def test_attention_quadratic_in_prompt(model):
    a = model.gpu_attention_s(LLAMA3_8B, 65536)
    b = model.gpu_attention_s(LLAMA3_8B, 131072)
    assert b == pytest.approx(4 * a, rel=0.05)


def test_object_bytes_match_layout(model):
    prompt = LS.window + LS.n_sink + 128
    n_bytes = model.drex_object_bytes(LLAMA3_8B, prompt, LS)
    per_head_layer = 128 * 128 // 8 + 2 * 128 * 128 * 2
    assert n_bytes == per_head_layer * 8 * 32


def test_short_prompt_writes_nothing(model):
    assert model.drex_object_bytes(LLAMA3_8B, 512, LS) == 0


def test_writes_overlap_compute(model):
    """For realistic prompts the CXL write hides under GPU compute."""
    breakdown = model.prefill(LLAMA3_8B, 131072, LS)
    assert breakdown.drex_write_s > 0
    assert breakdown.exposed_write_s == 0.0
    assert breakdown.total_s == pytest.approx(breakdown.gpu_s)


def test_dense_baseline_has_no_writes(model):
    breakdown = model.prefill(LLAMA3_8B, 131072, ls=None)
    assert breakdown.drex_write_s == 0.0
    assert breakdown.total_s == breakdown.gpu_s


def test_prefill_throughput_far_exceeds_decode():
    """Sanity vs Section 8.1.2: prefill has much higher token throughput
    than decode."""
    from repro.system.baselines import DenseGpuSystem

    model = PrefillModel()
    prompt = 32768
    prefill_tps = prompt / model.prefill(LLAMA3_8B, prompt).total_s
    decode = DenseGpuSystem(1).evaluate(LLAMA3_8B, prompt, 1)
    assert prefill_tps > 50 / decode.token_latency_s  # per-user tok/s
