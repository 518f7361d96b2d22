"""Run reproduction experiments from the command line.

Usage:
    python -m repro.bench list
    python -m repro.bench table1 table2 fig7 fig8 fig9 power
    python -m repro.bench fig3a fig3b fig3c fig4 fig10 dynax
    python -m repro.bench micro chaos serve fleet fleet_chaos
    python -m repro.bench obs_overhead recovery
    python -m repro.bench all            # everything (trains models once)

Tables print to stdout and are saved under results/.
"""

from __future__ import annotations

import sys
from typing import Callable, Dict

from repro.bench.chaos import run_chaos
from repro.bench.dynax import run_dynax
from repro.bench.fig3 import run_fig3
from repro.bench.fig4 import run_fig4
from repro.bench.fig7 import run_fig7
from repro.bench.fig8 import run_fig8
from repro.bench.fig9 import run_fig9
from repro.bench.fig10 import run_fig10
from repro.bench.fleet import run_fleet
from repro.bench.fleet_chaos import run_fleet_chaos
from repro.bench.micro import run_micro
from repro.bench.obs_overhead import run_obs_overhead
from repro.bench.recovery import run_recovery
from repro.bench.serve import run_serve
from repro.bench.spec_tables import run_power_area, run_table1, run_table2
from repro.bench.tables import Table, results_dir


def _runners() -> Dict[str, Callable[[], Table]]:
    return {
        "table1": run_table1,
        "table2": run_table2,
        "fig3a": lambda: run_fig3("a"),
        "fig3b": lambda: run_fig3("b"),
        "fig3c": lambda: run_fig3("c"),
        "fig4": run_fig4,
        "fig7": run_fig7,
        "fig8": run_fig8,
        "fig9": run_fig9,
        "fig10": run_fig10,
        "dynax": run_dynax,
        "power": run_power_area,
        "micro": run_micro,
        "chaos": run_chaos,
        "serve": run_serve,
        "fleet": run_fleet,
        "obs_overhead": run_obs_overhead,
        "recovery": run_recovery,
        "fleet_chaos": run_fleet_chaos,
    }


def main(argv: list[str]) -> int:
    runners = _runners()
    if not argv or argv == ["list"]:
        print(__doc__)
        print("available experiments:", ", ".join(sorted(runners)))
        return 0
    names = list(runners) if argv == ["all"] else argv
    unknown = [n for n in names if n not in runners]
    if unknown:
        print(f"unknown experiments: {unknown}; "
              f"options: {sorted(runners)} or 'all'")
        return 2
    for name in names:
        table = runners[name]()
        print()
        print(table.render())
        path = table.save(results_dir())
        print(f"[saved to {path}]")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
