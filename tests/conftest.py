"""Shared fixtures for the test suite.

Tests use *untrained* miniature models wherever possible: the functional
properties under test (equivalences, invariants, layouts) do not depend on
weight quality, and training is reserved for the benchmark suite.
"""

from __future__ import annotations

import signal
import threading

import numpy as np
import pytest

from repro.llm.config import ModelConfig
from repro.llm.model import Transformer


def pytest_addoption(parser):
    parser.addini(
        "test_timeout_s",
        "per-test wall-clock limit in seconds (SIGALRM; 0 disables)",
        default="120")
    parser.addoption(
        "--update-golden", action="store_true", default=False,
        help="rewrite checked-in golden files (e.g. the serve span tree) "
             "instead of comparing against them")


@pytest.fixture
def update_golden(request) -> bool:
    return bool(request.config.getoption("--update-golden"))


@pytest.fixture(autouse=True)
def _test_timeout(request):
    """Abort any test that hangs (e.g. a retry loop that never degrades).

    A conftest-level stand-in for pytest-timeout, which is not a
    dependency: arm a real-time alarm around each test and raise inside
    it when the limit is hit.  Skipped where SIGALRM cannot work (no
    SIGALRM on the platform, or a non-main test thread).
    """
    limit = float(request.config.getini("test_timeout_s") or 0)
    if limit <= 0 or not hasattr(signal, "SIGALRM") \
            or threading.current_thread() is not threading.main_thread():
        yield
        return

    def _on_alarm(signum, frame):
        raise TimeoutError(
            f"test exceeded the {limit:.0f}s wall-clock limit "
            f"(test_timeout_s in pyproject.toml)")

    previous = signal.signal(signal.SIGALRM, _on_alarm)
    signal.setitimer(signal.ITIMER_REAL, limit)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, previous)


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
