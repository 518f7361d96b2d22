"""Multi-tenant serving on the analytic clock.

The engine decodes a tiny model's tokens while :class:`AnalyticTiming`
charges every step for a paper-scale system and admits on that system's
capacity rule (``system.admits`` over the sessions' charged contexts).
"""

import numpy as np
import pytest

from repro.bench.scenario import Tenant, Trace
from repro.core.config import LongSightConfig
from repro.core.hybrid import LongSightAttention
from repro.llm.config import LLAMA3_8B, LLAMA3_1B
from repro.llm.model import DenseBackend, Transformer
from repro.llm.sampling import generate
from repro.serve.engine import AnalyticTiming, ServeEngine
from repro.serve.paged_kv import PagedKVPool
from repro.serve.scheduler import ServeRequest
from repro.system.baselines import (AttAccSystem, DenseGpuSystem,
                                    SlidingWindowGpuSystem)
from repro.system.engine import LongSightSystem
from repro.system.prefill import PrefillModel
from tests.conftest import TINY

#: The functional prompt every request decodes, whatever it is charged.
PROMPT_TOKENS = 12
LS = LongSightConfig(window=8, n_sink=4, top_k=12, thresholds=3)
#: Every paper-scale serving system, by name.
SYSTEMS = {
    "1-GPU": DenseGpuSystem(1),
    "2-GPU": DenseGpuSystem(2),
    "AttAcc": AttAccSystem(),
    "SlidingWindow": SlidingWindowGpuSystem(window=1024, n_sink=16),
    "LongSight": LongSightSystem(LongSightConfig(
        window=1024, n_sink=16, top_k=1024, use_itq=True)),
}


@pytest.fixture(scope="module")
def model():
    return Transformer(TINY, seed=0)


def _longsight_system():
    return LongSightSystem(LongSightConfig(window=1024, n_sink=16,
                                           top_k=1024, use_itq=True))


def _requests(n, prompt=32768, output=32, spacing=0.0):
    rng = np.random.default_rng(0)
    return [ServeRequest(request_id=i,
                         prompt=rng.integers(0, TINY.vocab_size,
                                             size=PROMPT_TOKENS),
                         max_new_tokens=output, arrival_s=i * spacing,
                         charged_prompt_tokens=prompt)
            for i in range(n)]


def _serve(model, system, requests, config=LLAMA3_8B, prefill=None,
           backend=DenseBackend, **kwargs):
    engine = ServeEngine(
        model, PagedKVPool(TINY, n_blocks=64, block_tokens=16),
        lambda request: backend(),
        timing=AnalyticTiming(system, config, prefill=prefill), **kwargs)
    return engine.run(requests)


def _sparse():
    return LongSightAttention(LS)


class TestWorkload:
    def test_poisson_deterministic_and_sorted(self):
        a = Trace((Tenant(20, 24, 10, seed=3, rate=1.0),)).requests()
        b = Trace((Tenant(20, 24, 10, seed=3, rate=1.0),)).requests()
        assert [r.arrival_s for r in a] == [r.arrival_s for r in b]
        assert all(np.array_equal(x.prompt, y.prompt) for x, y in zip(a, b))
        arrivals = [r.arrival_s for r in a]
        assert arrivals == sorted(arrivals)

    def test_prompt_jitter_bounded(self):
        requests = Trace((Tenant(50, 24, 10, seed=0, rate=1.0,
                                 charged=1000),)).requests()
        charged = [r.charged_prompt_tokens for r in requests]
        assert min(charged) >= 750 and max(charged) <= 1250
        assert len(set(charged)) > 1
        # the decoded prompt is jittered alike, at laptop scale
        assert all(18 <= len(r.prompt) <= 30 for r in requests)
        assert all(0 <= r.prompt.min() and r.prompt.max() < TINY.vocab_size
                   for r in requests)


class TestHeterogeneousCosts:
    @pytest.mark.parametrize("context", [8192, 32768, 131072, 262144,
                                         524288, 1_048_576])
    @pytest.mark.parametrize("name", sorted(SYSTEMS))
    def test_uniform_batch_is_the_step(self, name, context):
        """The figures' ``evaluate`` is the serving step at a uniform
        batch, exactly, and ``max_users`` is the boundary of ``admits``."""
        system = SYSTEMS[name]
        users = system.max_users(LLAMA3_8B, context)
        for n in sorted({1, 2, 3, 5, max(users, 1)}):
            point = system.evaluate(LLAMA3_8B, context, n)
            if n > users:
                assert point is None
                continue
            assert point.token_latency_s == system.step_latency_s(
                LLAMA3_8B, [context] * n)
        assert users == 0 or system.admits(LLAMA3_8B, [context] * users)
        assert not system.admits(LLAMA3_8B, [context] * (users + 1))

    def test_two_gpus_charge_one_user_like_one_gpu(self):
        one = DenseGpuSystem(1).step_latency_s(LLAMA3_8B, [131072])
        assert DenseGpuSystem(2).step_latency_s(LLAMA3_8B, [131072]) == one

    def test_two_gpus_cost_the_slowest_gpu(self):
        """The 128K user lands alone on one GPU, both 8K users on the
        other; the step waits for the slower of the two."""
        one = DenseGpuSystem(1)
        slowest = max(one.step_latency_s(LLAMA3_8B, [131072]),
                      one.step_latency_s(LLAMA3_8B, [8192, 8192]))
        assert DenseGpuSystem(2).step_latency_s(
            LLAMA3_8B, [131072, 8192, 8192]) == slowest

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
    def test_all_sessions_complete(self, model):
        report = _serve(model, DenseGpuSystem(1),
                        _requests(3, prompt=16384, output=8))
        assert len(report.completed) == 3
        assert report.tokens_generated == 24
        assert report.throughput_tps > 0

    def test_admission_queues_when_full(self, model):
        """More long sessions than HBM fits: later ones wait."""
        requests = _requests(8, prompt=131072, output=4)
        report = _serve(model, DenseGpuSystem(1), requests)
        assert len(report.completed) == 8
        delays = [r.events.admitted_s - r.events.arrival_s
                  for r in requests]
        assert max(delays) > 0.0
        assert report.peak_decode_batch < 8

    def test_one_token_request_finishes_at_its_first_token(self, model):
        """The first token comes from prefill, so a one-token request
        is done on that step — not handed one more decode."""
        requests = _requests(3, prompt=16384, output=1)
        report = _serve(model, DenseGpuSystem(1), requests,
                        prefill=PrefillModel())
        assert report.tokens_generated == 3
        for request in requests:
            assert len(request.outputs) == 1
            assert request.events.finished_s == request.events.first_token_s

    def test_impossible_sessions_rejected(self, model):
        report = _serve(model, DenseGpuSystem(1),
                        _requests(2, prompt=1_048_576, output=4))
        assert not report.completed
        assert report.tokens_generated == 0
        assert len(report.rejected) == 2

    def test_longsight_sustains_more_concurrency(self, model):
        """The Section 9.1 capacity story under dynamics: at 128K prompts,
        LongSight admits far more concurrent sessions than one GPU."""
        gpu_report = _serve(model, DenseGpuSystem(1),
                            _requests(12, prompt=131072, output=16))
        ls_report = _serve(model, _longsight_system(),
                           _requests(12, prompt=131072, output=16),
                           backend=_sparse)
        assert ls_report.peak_decode_batch > gpu_report.peak_decode_batch
        assert ls_report.mean_queueing_delay_s < \
            gpu_report.mean_queueing_delay_s

    def test_context_grows_during_decode(self, model):
        engine = LongSightSystem(LongSightConfig(window=1024, n_sink=16,
                                                 top_k=1024))
        [request] = _requests(1, prompt=4096, output=5)
        _serve(model, engine, [request], LLAMA3_1B, backend=_sparse)
        assert request.charged_context == 4096 + 5
        assert request.events.finished_s is not None

    def test_report_metrics(self, model):
        report = _serve(model, DenseGpuSystem(1),
                        _requests(2, prompt=1024, output=4, spacing=0.001),
                        LLAMA3_1B, prefill=PrefillModel())
        assert report.mean_request_latency_s > 0
        assert report.mean_queueing_delay_s >= 0
        # TTFT / TPOT are the report's own reductions over the events.
        assert 0 < report.ttft_percentile_s(50.0) \
            <= report.ttft_percentile_s(99.0)
        assert report.tpot_percentile_s(50.0) > 0


class TestCapacityAdmission:
    def test_one_gpu_holds_three_128k_sessions(self, model):
        """Eight 128K sessions at t = 0: one GPU's HBM holds three, so the
        rest queue — and every served stream is still solo ``generate``'s.
        LongSight + DReX holds all eight."""
        requests = _requests(8, prompt=131072, output=16)
        report = _serve(model, DenseGpuSystem(1), requests)
        assert report.peak_decode_batch == 3
        assert max(r.events.admitted_s - r.events.arrival_s
                   for r in requests) > 0.0
        for request in requests:
            assert request.outputs == list(generate(
                model, request.prompt, 16, backend=DenseBackend()))
        longsight = _serve(model, _longsight_system(),
                           _requests(8, prompt=131072, output=16),
                           backend=_sparse)
        assert longsight.peak_decode_batch == 8


class TestFrozenClock:
    def test_blocked_head_waits_for_prefilling_batch(self, model):
        """Five 128K requests at t = 0 on one GPU (three fit): while the
        admitted three are still prefilling, the blocked queue head must
        not hold the clock at its own (past) eligibility."""
        report = _serve(model, DenseGpuSystem(1),
                        _requests(5, prompt=131072, output=8),
                        prefill=PrefillModel(), max_steps=1_000)
        assert len(report.completed) == 5
        assert report.clock_s > 0.0
        assert report.peak_decode_batch == 3

    def test_exhausted_step_budget_raises(self, model):
        with pytest.raises(RuntimeError, match="2 requests still live"):
            _serve(model, DenseGpuSystem(1),
                   _requests(2, prompt=1024, output=8), max_steps=3)


class TestPrefillIntegration:
    def test_prefill_delays_first_token(self, model):
        system = DenseGpuSystem(1)
        fast = _requests(1, prompt=131072, output=4)
        slow = _requests(1, prompt=131072, output=4)
        no_prefill = _serve(model, system, fast)
        with_prefill = _serve(model, system, slow, prefill=PrefillModel())
        assert len(with_prefill.completed) == 1
        assert with_prefill.mean_request_latency_s > \
            no_prefill.mean_request_latency_s
        assert slow[0].ready_s > slow[0].events.admitted_s
        assert with_prefill.ttft_percentile_s(50.0) > \
            no_prefill.ttft_percentile_s(50.0)

    def test_prefill_uses_longsight_object_writes(self, model):
        """The LongSight system hands its algorithm config to the prefill
        model so DReX object writes are accounted (and overlapped)."""
        report = _serve(model, _longsight_system(),
                        _requests(1, prompt=131072, output=2),
                        prefill=PrefillModel(), backend=_sparse)
        assert len(report.completed) == 1
