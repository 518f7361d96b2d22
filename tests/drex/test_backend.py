"""End-to-end integration: DReX-offload backend == software hybrid."""

import numpy as np
import pytest

from repro.core.config import LongSightConfig
from repro.core.hybrid import LongSightAttention
from repro.core.itq import fit_itq
from repro.drex.backend import DrexOffloadBackend
from repro.llm.model import Transformer
from tests.conftest import TINY


@pytest.fixture(scope="module")
def model():
    return Transformer(TINY, seed=5)


@pytest.fixture(scope="module")
def tokens():
    return np.random.default_rng(21).integers(0, TINY.vocab_size, size=70)


@pytest.mark.parametrize("thresholds", [0, 5, TINY.head_dim,
                                        TINY.head_dim + 1])
@pytest.mark.parametrize("top_k", [0, 1, 12, 500])
def test_matches_software_backend_exactly(model, tokens, top_k, thresholds):
    """With flush granularity 1 the device-driven path equals the pure
    software hybrid to round-off — the paper's Figure 2b equivalence —
    across the numeric edges: an empty top-k, a single key, a top-k wider
    than the context, a filter that passes every key (0), and thresholds
    that pass only exact sign matches (head_dim) or nothing at all."""
    config = LongSightConfig(window=8, n_sink=4, top_k=top_k,
                             thresholds=thresholds)
    software = model.forward_full(tokens, backend=LongSightAttention(config),
                                  block_size=16)
    hardware = model.forward_full(
        tokens, backend=DrexOffloadBackend(TINY, config, flush_granularity=1),
        block_size=16)
    np.testing.assert_allclose(hardware, software, atol=1e-12)


def test_matches_software_backend_with_itq(model, tokens):
    rotations = fit_itq(model, tokens[:32], n_iter=3)
    config = LongSightConfig(window=8, n_sink=4, top_k=12, thresholds=6,
                             use_itq=True)
    software = model.forward_full(
        tokens, backend=LongSightAttention(config, rotations=rotations),
        block_size=16)
    hardware = model.forward_full(
        tokens, backend=DrexOffloadBackend(TINY, config, rotations=rotations,
                                           flush_granularity=1),
        block_size=16)
    np.testing.assert_allclose(hardware, software, atol=1e-12)


def test_group_flushing_keeps_staged_tokens_dense(model, tokens):
    """With the default group size, unflushed tokens stay in the dense
    (staging) region — output must equal a software run whose dense region
    is extended the same way, and never lose tokens."""
    config = LongSightConfig(window=8, n_sink=4, top_k=64, thresholds=0)
    backend = DrexOffloadBackend(TINY, config, flush_granularity=16)
    hardware = model.forward_full(tokens, backend=backend, block_size=16)
    # With thresholds=0 and top_k large, every token is attended either
    # densely or via sparse retrieval => identical to dense attention.
    dense = model.forward_full(tokens)
    np.testing.assert_allclose(hardware, dense, atol=1e-12)


def test_latency_accumulates(model, tokens):
    config = LongSightConfig(window=8, n_sink=4, top_k=8, thresholds=4)
    backend = DrexOffloadBackend(TINY, config, flush_granularity=1)
    model.forward_full(tokens, backend=backend, block_size=16)
    assert backend.n_offloads > 0
    assert backend.total_latency.total_ns > 0
    mean = backend.mean_offload_latency()
    assert 0 < mean.total_ns < backend.total_latency.total_ns


def test_requires_rotations_for_itq():
    with pytest.raises(ValueError):
        DrexOffloadBackend(TINY, LongSightConfig(use_itq=True))


def test_device_population_follows_flush(model, tokens):
    config = LongSightConfig(window=8, n_sink=4, top_k=8, thresholds=0)
    backend = DrexOffloadBackend(TINY, config, flush_granularity=1)
    model.forward_full(tokens, backend=backend, block_size=16)
    n = len(tokens)
    expected = n - 1 - config.window + 1 - config.n_sink
    assert backend.device.context_length(0, 0, 0) == expected
