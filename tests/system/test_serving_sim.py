"""Multi-tenant serving simulator tests."""

import numpy as np
import pytest

from repro.core.config import LongSightConfig
from repro.llm.config import LLAMA3_8B, LLAMA3_1B
from repro.serve.crossval import poisson_workload
from repro.serve.engine import AnalyticTiming
from repro.serve.scheduler import ServeRequest
from repro.system.baselines import DenseGpuSystem
from repro.system.engine import LongSightSystem
from repro.system.prefill import PrefillModel
from repro.system.serving_sim import ServingSimulator


def _requests(n, prompt=32768, output=32, spacing=0.0):
    return [ServeRequest(request_id=i, prompt=np.zeros(0, dtype=np.int64),
                         max_new_tokens=output, arrival_s=i * spacing,
                         charged_prompt_tokens=prompt)
            for i in range(n)]


def _sim(system, config=LLAMA3_8B, prefill=None, **kwargs):
    return ServingSimulator(AnalyticTiming(system, config, prefill=prefill),
                            **kwargs)


class TestWorkload:
    def test_poisson_deterministic_and_sorted(self):
        a = poisson_workload(20, 1.0, 1000, 10, seed=3)
        b = poisson_workload(20, 1.0, 1000, 10, seed=3)
        assert [r.arrival_s for r in a] == [r.arrival_s for r in b]
        arrivals = [r.arrival_s for r in a]
        assert arrivals == sorted(arrivals)

    def test_prompt_jitter_bounded(self):
        requests = poisson_workload(50, 1.0, 1000, 10, seed=0,
                                    prompt_jitter=0.25)
        prompts = [r.charged_prompt_tokens for r in requests]
        assert min(prompts) >= 750 and max(prompts) <= 1250
        assert len(set(prompts)) > 1
        # token-free: the charged length is all the trace carries
        assert all(len(r.prompt) == 0 for r in requests)


class TestHeterogeneousCosts:
    def test_dense_step_matches_uniform_evaluate(self):
        system = DenseGpuSystem(1)
        uniform = system.evaluate(LLAMA3_8B, 32768, 4)
        step = system.step_latency_s(LLAMA3_8B, [32768] * 4)
        assert step == pytest.approx(uniform.token_latency_s, rel=1e-9)

    def test_longsight_step_matches_uniform_evaluate(self):
        engine = LongSightSystem(LongSightConfig(window=1024, n_sink=16,
                                                 top_k=1024, use_itq=True))
        uniform = engine.evaluate(LLAMA3_8B, 131072, 4)
        step = engine.step_latency_s(LLAMA3_8B, [131072] * 4)
        assert step == pytest.approx(uniform.token_latency_s, rel=0.02)

    def test_mixed_contexts_between_extremes(self):
        system = DenseGpuSystem(1)
        low = system.step_latency_s(LLAMA3_8B, [8192] * 4)
        mixed = system.step_latency_s(LLAMA3_8B, [8192, 8192, 65536, 65536])
        high = system.step_latency_s(LLAMA3_8B, [65536] * 4)
        assert low < mixed < high

    def test_admits_respects_capacity(self):
        system = DenseGpuSystem(1)
        assert system.admits(LLAMA3_8B, [32768] * 4)
        assert not system.admits(LLAMA3_8B, [524288] * 4)
        engine = LongSightSystem(LongSightConfig(window=1024, n_sink=16,
                                                 top_k=1024))
        assert engine.admits(LLAMA3_8B, [524288] * 4)


class TestSimulation:
    def test_all_sessions_complete(self):
        report = _sim(DenseGpuSystem(1)).run(
            _requests(3, prompt=16384, output=8))
        assert len(report.completed) == 3
        assert report.tokens_generated == 24
        assert report.throughput_tps > 0

    def test_admission_queues_when_full(self):
        """More long sessions than HBM fits: later ones wait."""
        requests = _requests(8, prompt=131072, output=4)
        report = _sim(DenseGpuSystem(1)).run(requests)
        assert len(report.completed) == 8
        delays = [r.events.admitted_s - r.events.arrival_s
                  for r in requests]
        assert max(delays) > 0.0
        assert report.peak_decode_batch < 8

    def test_impossible_sessions_rejected(self):
        report = _sim(DenseGpuSystem(1)).run(
            _requests(2, prompt=1_048_576, output=4))
        assert not report.completed
        assert report.tokens_generated == 0
        assert len(report.rejected) == 2

    def test_longsight_sustains_more_concurrency(self):
        """The Section 9.1 capacity story under dynamics: at 128K prompts,
        LongSight admits far more concurrent sessions than one GPU."""
        gpu_report = _sim(DenseGpuSystem(1)).run(
            _requests(12, prompt=131072, output=4))
        engine = LongSightSystem(LongSightConfig(window=1024, n_sink=16,
                                                 top_k=1024, use_itq=True))
        ls_report = _sim(engine).run(_requests(12, prompt=131072, output=4))
        assert ls_report.peak_decode_batch > gpu_report.peak_decode_batch
        assert ls_report.mean_queueing_delay_s < \
            gpu_report.mean_queueing_delay_s

    def test_context_grows_during_decode(self):
        engine = LongSightSystem(LongSightConfig(window=1024, n_sink=16,
                                                 top_k=1024))
        [request] = _requests(1, prompt=4096, output=5)
        _sim(engine, LLAMA3_1B).run([request])
        assert request.charged_context == 4096 + 5
        assert request.events.finished_s is not None

    def test_report_metrics(self):
        report = _sim(DenseGpuSystem(1), LLAMA3_1B).run(
            _requests(2, prompt=1024, output=4, spacing=0.001))
        assert report.mean_request_latency_s > 0
        assert report.mean_queueing_delay_s >= 0
        # TTFT / TPOT are the report's own reductions over the events.
        assert 0 < report.ttft_percentile_s(50.0) \
            <= report.ttft_percentile_s(99.0)
        assert report.tpot_percentile_s(50.0) > 0


class TestFrozenClock:
    def test_blocked_head_waits_for_prefilling_batch(self):
        """Five 128K requests at t = 0 on one GPU (three fit): while the
        admitted three are still prefilling, the blocked queue head must
        not hold the clock at its own (past) eligibility."""
        report = _sim(DenseGpuSystem(1), prefill=PrefillModel(),
                      max_steps=1_000).run(
            _requests(5, prompt=131072, output=8))
        assert len(report.completed) == 5
        assert report.clock_s > 0.0
        assert report.peak_decode_batch == 3

    def test_exhausted_step_budget_raises(self):
        with pytest.raises(RuntimeError, match="still live"):
            _sim(DenseGpuSystem(1), max_steps=3).run(
                _requests(2, prompt=1024, output=8))


class TestPrefillIntegration:
    def test_prefill_delays_first_token(self):
        system = DenseGpuSystem(1)
        fast = _requests(1, prompt=131072, output=4)
        slow = _requests(1, prompt=131072, output=4)
        no_prefill = _sim(system).run(fast)
        with_prefill = _sim(system, prefill=PrefillModel()).run(slow)
        assert len(with_prefill.completed) == 1
        assert with_prefill.mean_request_latency_s > \
            no_prefill.mean_request_latency_s
        assert slow[0].ready_s > slow[0].events.admitted_s
        assert with_prefill.ttft_percentile_s(50.0) > \
            no_prefill.ttft_percentile_s(50.0)

    def test_prefill_uses_longsight_object_writes(self):
        """The LongSight system hands its algorithm config to the prefill
        model so DReX object writes are accounted (and overlapped)."""
        engine = LongSightSystem(LongSightConfig(window=1024, n_sink=16,
                                                 top_k=1024))
        report = _sim(engine, prefill=PrefillModel()).run(
            _requests(1, prompt=131072, output=2))
        assert len(report.completed) == 1

