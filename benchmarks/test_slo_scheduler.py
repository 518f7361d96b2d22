"""SLO attainment under load (Section 4's latency-budget discussion).

The paper frames each layer's attention as having a Service Level
Objective of "a few hundred microseconds".  This experiment runs the
discrete-event DReX scheduler for one decode layer across user counts and
reports mean/p99 offload latency, SLO attainment, NMA utilization — and
cross-validates the analytical queueing approximation used by Figure 7.
"""

import pytest

from benchmarks.conftest import run_once

from repro.bench.tables import Table
from repro.core.config import LongSightConfig
from repro.llm.config import LLAMA3_8B
from repro.system.engine import LongSightSystem

CONTEXT = 131072
SLO_NS = 300_000.0  # 300 us per-layer attention budget


def test_slo_attainment(benchmark, report):
    engine = LongSightSystem(LongSightConfig(window=1024, n_sink=16,
                                             top_k=1024, use_itq=True))

    def run():
        table = Table(
            "SLO attainment: DReX offload latency vs load "
            f"(llama-3-8b, {CONTEXT // 1024}K ctx, SLO={SLO_NS / 1e3:.0f}us)",
            ["users", "mean_us", "p99_us", "slo_attainment",
             "nma_utilization", "makespan_us", "analytical_us"])
        for users in (1, 4, 8, 16, 31):
            outcome = engine.simulate_decode_layer(LLAMA3_8B, CONTEXT, users)
            occupancy = engine.layer_occupancy_ns(LLAMA3_8B,
                                                  [CONTEXT] * users)
            analytical = max(occupancy["drex"], occupancy["cxl"])
            table.add_row(
                users=users,
                mean_us=outcome.mean_latency_ns() / 1e3,
                p99_us=outcome.p99_latency_ns() / 1e3,
                slo_attainment=outcome.slo_attainment(SLO_NS),
                nma_utilization=outcome.nma_utilization(),
                makespan_us=outcome.makespan_ns / 1e3,
                analytical_us=analytical / 1e3)
        return table

    table = run_once(benchmark, run)
    report(table)
    by_users = {row["users"]: row for row in table.rows}
    # Latency grows with load; a single user comfortably meets the SLO.
    assert by_users[1]["slo_attainment"] == 1.0
    means = [by_users[u]["mean_us"] for u in (1, 8, 31)]
    assert means == sorted(means)
    # The analytical approximation tracks the simulated makespan within 2x.
    for row in table.rows:
        assert row["analytical_us"] <= row["makespan_us"] * 1.05
        assert row["makespan_us"] <= row["analytical_us"] * 2.0 + 50.0
