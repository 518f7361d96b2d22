"""The per-test wall-clock alarm, for every suite that loads it.

``pyproject.toml`` sets ``test_timeout_s`` once; this module registers
that ini option and the autouse fixture that enforces it, and each
suite's ``conftest.py`` (``tests/``, ``benchmarks/``) loads both:

    from tests.alarm import _test_timeout  # noqa: F401 (autouse)

    def pytest_addoption(parser):
        add_timeout_option(parser)

pytest-timeout is intentionally not a dependency.
"""

from __future__ import annotations

import signal
import threading

import pytest


def add_timeout_option(parser) -> None:
    """Register ``test_timeout_s`` (seconds; 0 disables)."""
    parser.addini(
        "test_timeout_s",
        "per-test wall-clock limit in seconds (SIGALRM; 0 disables)",
        default="120")


@pytest.fixture(autouse=True)
def _test_timeout(request):
    """Abort any test that hangs (e.g. a retry loop that never degrades).

    Arm a real-time alarm around each test and raise inside it when the
    limit is hit.  Skipped where SIGALRM cannot work (no SIGALRM on the
    platform, or a non-main test thread).
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
