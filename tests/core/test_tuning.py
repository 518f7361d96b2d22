"""Hyper-parameter tuning loop tests (small model, short streams)."""

import numpy as np
import pytest

from repro.core.config import LongSightConfig
from repro.core.tuning import evaluate, tune_thresholds
from repro.llm.model import Transformer
from repro.llm.perplexity import perplexity, perplexity_increase
from tests.conftest import TINY


@pytest.fixture(scope="module")
def setup():
    model = Transformer(TINY, seed=3)
    rng = np.random.default_rng(8)
    tokens = rng.integers(0, TINY.vocab_size, size=96)
    dense = perplexity(model, tokens)
    return model, tokens, dense


def test_evaluate_returns_ppl_and_stats(setup):
    model, tokens, _ = setup
    config = LongSightConfig(window=8, n_sink=2, top_k=8, thresholds=4)
    ppl, stats = evaluate(model, tokens, config)
    assert ppl > 1.0
    assert stats.candidates.sum() > 0


def test_tune_thresholds_respects_budget(setup):
    model, tokens, dense = setup
    config = LongSightConfig(window=8, n_sink=2, top_k=8)
    result = tune_thresholds(model, tokens, config, dense,
                             max_increase=0.10, step=2, max_iterations=6)
    assert result.thresholds.shape == (TINY.n_layers, TINY.n_kv_heads)
    assert perplexity_increase(result.perplexity, dense) <= 0.10
    assert result.filter_ratio >= 1.0  # k << N, so filtering always saves
    assert 1 <= result.iterations <= 6
    assert len(result.history) == result.iterations


def test_tune_thresholds_progress_monotone(setup):
    """Each accepted step raises exactly one threshold by `step`."""
    model, tokens, dense = setup
    config = LongSightConfig(window=8, n_sink=2, top_k=96)
    result = tune_thresholds(model, tokens, config, dense,
                             max_increase=10.0, step=4, max_iterations=5)
    total = result.thresholds.sum()
    assert total == 4 * (result.iterations - 1) or total <= 4 * result.iterations


def test_tune_thresholds_zero_iterations_budget(setup):
    """Even an unfiltered config over budget returns a (flagged) result."""
    model, tokens, dense = setup
    config = LongSightConfig(window=2, n_sink=0, top_k=1)
    result = tune_thresholds(model, tokens, config, dense,
                             max_increase=-0.5, step=2, max_iterations=3)
    assert (result.thresholds == 0).all()
