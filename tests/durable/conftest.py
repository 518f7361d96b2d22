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

from repro.bench.scenario import (Scenario, Tenant, Topology, Trace,
                                  build_engine)
from repro.serve.engine import ServeEngine
from repro.serve.scheduler import SloPolicy

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


@pytest.fixture
def engine_builder():
    """Factory of fresh engines with identical geometry (restore needs a
    clean pool per recovery)."""
    def build(n_blocks: int = 64, prefix_caching: bool = True,
              make_backend=None, policy=None) -> ServeEngine:
        engine = build_engine(Scenario(topology=Topology(
            policy=policy or SloPolicy(max_decode_batch=4),
            n_blocks=n_blocks, prefix_caching=prefix_caching)))
        if make_backend is not None:
            engine.backend_factory = make_backend
        return engine
    return build


@pytest.fixture
def make_workload():
    """Deterministic small workload; fresh request objects per call."""
    def build(n_requests: int = 3, prompt_tokens: int = 24,
              output_tokens: int = 8, seed: int = 7):
        return Trace((Tenant(n_requests, prompt_tokens, output_tokens,
                             seed=seed, rate=50.0, charged=65_536),)
                     ).requests()
    return build
