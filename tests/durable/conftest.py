"""Durable-suite fixtures: shared tiny serving setup + a tighter watchdog.

The root conftest already arms a 120s SIGALRM around every test; replay
loops that wedge (a recovery that never converges, a step that spins)
would still burn two CI minutes each.  This suite re-arms the alarm at a
tighter limit so a hung replay fails in seconds, mirroring the
root-level pattern rather than replacing it.
"""

from __future__ import annotations

import signal
import threading

import pytest

from repro.bench.serve import TINY_LS, TINY_MODEL
from repro.llm.config import LLAMA3_8B
from repro.llm.model import Transformer
from repro.serve.workload import backend_factory, default_systems, \
    poisson_workload
from repro.serve.engine import AnalyticTiming, ServeEngine
from repro.serve.paged_kv import PagedKVPool
from repro.serve.scheduler import SloPolicy
from repro.system.prefill import PrefillModel

#: Replay/recovery loops must converge far faster than the global limit.
DURABLE_TIMEOUT_S = 60.0


def pytest_collection_modifyitems(items):
    for item in items:
        item.add_marker(pytest.mark.durable)


@pytest.fixture(autouse=True)
def _durable_watchdog():
    """Tighter SIGALRM for this suite (hung replay loops fail fast)."""
    if not hasattr(signal, "SIGALRM") \
            or threading.current_thread() is not threading.main_thread():
        yield
        return

    def _on_alarm(signum, frame):
        raise TimeoutError(
            f"durable test exceeded the {DURABLE_TIMEOUT_S:.0f}s "
            "watchdog (replay or recovery loop is likely hung)")

    previous = signal.signal(signal.SIGALRM, _on_alarm)
    signal.setitimer(signal.ITIMER_REAL, DURABLE_TIMEOUT_S)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, previous)


@pytest.fixture(scope="session")
def durable_model():
    return Transformer(TINY_MODEL, seed=0)


@pytest.fixture(scope="session")
def longsight_system():
    return default_systems()["longsight"]


@pytest.fixture
def engine_builder(durable_model, longsight_system):
    """Factory of fresh engines with identical geometry (restore needs a
    clean pool per recovery)."""
    def build(n_blocks: int = 64, prefix_caching: bool = True,
              make_backend=None, policy=None) -> ServeEngine:
        pool = PagedKVPool(durable_model.config, n_blocks=n_blocks,
                           block_tokens=16, prefix_caching=prefix_caching)
        return ServeEngine(
            durable_model, pool,
            make_backend or backend_factory("longsight", TINY_LS),
            policy=policy or SloPolicy(max_decode_batch=4),
            timing=AnalyticTiming(longsight_system, LLAMA3_8B,
                                  prefill=PrefillModel()),
            name="longsight")
    return build


@pytest.fixture
def make_workload():
    """Deterministic small workload; fresh request objects per call."""
    def build(n_requests: int = 3, prompt_tokens: int = 24,
              output_tokens: int = 8, seed: int = 7):
        return poisson_workload(
            n_requests, 50.0, prompt_tokens, output_tokens,
            TINY_MODEL.vocab_size, charged_prompt_tokens=65_536,
            seed=seed)
    return build
