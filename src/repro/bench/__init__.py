"""Experiment harness: paper-style tables and per-figure runners.

Each module here regenerates one table or figure of the paper's evaluation
(Section 9).  The ``benchmarks/`` pytest-benchmark suite is a thin shell
over these runners; the same functions are importable for interactive use::

    from repro.bench.fig7 import run_fig7
    table = run_fig7()
    print(table.render())
"""

from repro.bench.tables import Table

__all__ = ["Table"]
