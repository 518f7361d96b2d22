"""Shared fixtures for the test suite.

Tests use *untrained* miniature models wherever possible: the functional
properties under test (equivalences, invariants, layouts) do not depend on
weight quality, and training is reserved for the benchmark suite.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.llm.config import ModelConfig
from repro.llm.model import Transformer
from tests.alarm import _test_timeout, add_timeout_option  # noqa: F401


def pytest_addoption(parser):
    add_timeout_option(parser)
    parser.addoption(
        "--update-golden", action="store_true", default=False,
        help="rewrite checked-in golden files (e.g. the serve span tree) "
             "instead of comparing against them")


@pytest.fixture
def update_golden(request) -> bool:
    return bool(request.config.getoption("--update-golden"))


#: A deliberately tiny config so full-sequence tests stay fast.
TINY = ModelConfig(
    name="tiny-test",
    vocab_size=64,
    n_layers=2,
    n_q_heads=4,
    n_kv_heads=2,
    head_dim=8,
    d_ff=32,
    qk_bias=True,
)

#: Same architecture without biases (exercises both code paths).
TINY_NOBIAS = ModelConfig(
    name="tiny-test-nobias",
    vocab_size=64,
    n_layers=2,
    n_q_heads=4,
    n_kv_heads=2,
    head_dim=8,
    d_ff=32,
    qk_bias=False,
)


@pytest.fixture
def stacked_calls(monkeypatch) -> list:
    """Every ``LongSightAttention.forward_cached_batch`` call of the test,
    as ``(backend config, layer, sessions in the call)``."""
    from repro.core.hybrid import LongSightAttention

    calls = []
    routine = LongSightAttention.forward_cached_batch

    def spy(self, layer, qs, caches):
        calls.append((self.config, layer, len(caches)))
        return routine(self, layer, qs, caches)

    monkeypatch.setattr(LongSightAttention, "forward_cached_batch", spy)
    return calls


@pytest.fixture
def key_tile(monkeypatch):
    """``key_tile(tile, n_new=1)`` forces the attention kernel's key tile.

    The tile is derived, ``_SLAB_ELEMS // n_new`` columns for a block of
    ``n_new`` queries; this sets the one bound it (and the head slab)
    derive from to ``tile * n_new``, so that block streams ``tile``
    columns at a time.  ``tile = 0`` leaves the default bound.
    """
    from repro.core import hybrid

    def force(tile: int, n_new: int = 1) -> None:
        if tile:
            monkeypatch.setattr(hybrid, "_SLAB_ELEMS", tile * n_new)
    return force


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(1234)


@pytest.fixture
def tiny_config() -> ModelConfig:
    return TINY


@pytest.fixture
def tiny_model() -> Transformer:
    return Transformer(TINY, seed=7)


@pytest.fixture
def tiny_tokens(rng) -> np.ndarray:
    return rng.integers(0, TINY.vocab_size, size=96)
