"""Extension experiment: multi-tenant serving under Poisson arrivals.

Not a paper figure — an ablation of the Section 4 "dynamic updates"
requirement: sessions arrive, grow their per-head KV databases every
token, and leave.  Compares 1-GPU, 2-GPU and LongSight on admission
queueing delay, sustained throughput and peak concurrency for long-prompt
traffic.  A tiny model decodes every token; the clock is charged, and
admission capped, for Llama-3-8B at the charged prompt length.
"""

from benchmarks.conftest import run_once

from repro.bench.scenario import TINY_LS, TINY_MODEL, Tenant, Trace
from repro.bench.tables import Table
from repro.core.config import LongSightConfig
from repro.core.hybrid import LongSightAttention
from repro.llm.config import LLAMA3_8B
from repro.llm.model import DenseBackend, Transformer
from repro.serve.engine import AnalyticTiming, ServeEngine
from repro.serve.paged_kv import PagedKVPool
from repro.serve.scheduler import SloPolicy
from repro.system.baselines import DenseGpuSystem
from repro.system.engine import LongSightSystem

PROMPT = 131072
FUNCTIONAL_PROMPT = 24
OUTPUT = 32
N_SESSIONS = 24
ARRIVAL_RATE = 50.0  # sessions/second (saturating load)


def test_serving_trace(benchmark, report):
    def run():
        model = Transformer(TINY_MODEL, seed=0)
        systems = [
            (DenseGpuSystem(1), DenseBackend),
            (DenseGpuSystem(2), DenseBackend),
            (LongSightSystem(LongSightConfig(window=1024, n_sink=16,
                                             top_k=1024, use_itq=True)),
             lambda: LongSightAttention(TINY_LS)),
        ]
        table = Table(
            f"Serving trace: {N_SESSIONS} Poisson sessions, "
            f"{PROMPT // 1024}K prompts, {OUTPUT} output tokens "
            f"(llama-3-8b)",
            ["system", "completed", "throughput_tps", "peak_concurrency",
             "mean_queue_delay_s", "mean_session_latency_s"])
        for system, backend in systems:
            requests = Trace((Tenant(
                N_SESSIONS, FUNCTIONAL_PROMPT, OUTPUT, seed=11,
                rate=ARRIVAL_RATE, charged=PROMPT),)).requests()
            engine = ServeEngine(
                model,
                PagedKVPool(TINY_MODEL, n_blocks=16 * N_SESSIONS,
                            block_tokens=16),
                lambda request, make=backend: make(),
                policy=SloPolicy(max_decode_batch=N_SESSIONS),
                timing=AnalyticTiming(system, LLAMA3_8B), name=system.name)
            outcome = engine.run(requests)
            table.add_row(
                system=system.name,
                completed=len(outcome.completed),
                throughput_tps=outcome.throughput_tps,
                peak_concurrency=outcome.peak_decode_batch,
                mean_queue_delay_s=outcome.mean_queueing_delay_s,
                mean_session_latency_s=outcome.mean_request_latency_s)
        return table

    table = run_once(benchmark, run)
    report(table)
    rows = {r["system"]: r for r in table.rows}
    assert rows["LongSight"]["peak_concurrency"] >= \
        rows["1-GPU"]["peak_concurrency"]
    assert rows["LongSight"]["mean_queue_delay_s"] <= \
        rows["1-GPU"]["mean_queue_delay_s"]
    assert all(r["completed"] == N_SESSIONS for r in table.rows)
