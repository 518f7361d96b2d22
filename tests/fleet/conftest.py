"""Fleet-suite fixtures: resilience marker + a tighter watchdog.

Every test here is tagged ``resilience`` (select with ``-m resilience``).
The root conftest already arms a 120s SIGALRM around every test, but the
failure mode this suite exists to catch — a lockstep router waiting
forever on a gray worker — would still burn two CI minutes per test.
The suite re-arms the alarm at a tighter limit so a router that blocks
on a wedged worker fails in seconds, mirroring the durable-suite
pattern rather than replacing the root one.
"""

from __future__ import annotations

import signal
import threading

import pytest

from repro.bench.fleet import fleet_workload
from repro.bench.serve import TINY_MODEL
from repro.llm.model import Transformer
from repro.serve.workload import default_systems

#: A healthy router iteration is milliseconds; a hung one never returns.
RESILIENCE_TIMEOUT_S = 60.0


def pytest_collection_modifyitems(items):
    for item in items:
        item.add_marker(pytest.mark.resilience)


@pytest.fixture(autouse=True)
def _resilience_watchdog():
    """Tighter SIGALRM for this suite (a router stuck waiting on a gray
    worker fails fast instead of eating the global budget)."""
    if not hasattr(signal, "SIGALRM") \
            or threading.current_thread() is not threading.main_thread():
        yield
        return

    def _on_alarm(signum, frame):
        raise TimeoutError(
            f"fleet test exceeded the {RESILIENCE_TIMEOUT_S:.0f}s "
            "watchdog (the router is likely blocked on a gray worker)")

    previous = signal.signal(signal.SIGALRM, _on_alarm)
    signal.setitimer(signal.ITIMER_REAL, RESILIENCE_TIMEOUT_S)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, previous)


@pytest.fixture(scope="session")
def fleet_model():
    return Transformer(TINY_MODEL, seed=0)


@pytest.fixture(scope="session")
def longsight_system():
    return default_systems()["longsight"]


@pytest.fixture
def make_trace(fleet_model):
    """Deterministic two-tenant fleet trace; fresh requests per call."""
    def build(n_steady: int = 10, n_burst: int = 6,
              output_tokens: int = 8, seed: int = 0):
        return fleet_workload(n_steady, n_burst,
                              fleet_model.config.vocab_size, seed=seed,
                              output_tokens=output_tokens)
    return build
