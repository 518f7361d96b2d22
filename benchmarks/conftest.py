"""Benchmark-suite fixtures.

Every benchmark both *times* its experiment via pytest-benchmark and
*prints/saves* the paper-style table it regenerates (under ``results/``).
"""

from __future__ import annotations

import pytest

from repro.bench.tables import Table, results_dir
from tests.alarm import _test_timeout, add_timeout_option  # noqa: F401


def pytest_addoption(parser):
    add_timeout_option(parser)


@pytest.fixture
def report():
    """Print a result table to the terminal and persist it to results/."""

    def _report(table: Table) -> Table:
        print()
        print(table.render())
        table.save(results_dir())
        return table

    return _report


def run_once(benchmark, fn):
    """Time ``fn`` exactly once (experiments are deterministic and slow)."""
    return benchmark.pedantic(fn, rounds=1, iterations=1)
