"""Serving under offload faults: one fault model, through the engine.

Every LongSight session offloads through its own
:class:`DrexOffloadBackend` under a seeded :class:`FaultPlan`; a
session whose offloads keep degrading is pinned to the dense window (shed
from the sparse path, never from service).
"""

import dataclasses

import numpy as np
import pytest

from repro.bench.chaos import _fault_mix
from repro.bench.scenario import Tenant, Trace
from repro.core.config import LongSightConfig
from repro.core.hybrid import LongSightAttention
from repro.drex.backend import DrexOffloadBackend
from repro.faults import FaultPlan
from repro.llm.config import LLAMA3_8B
from repro.llm.model import Transformer
from repro.serve.engine import AnalyticTiming, ServeEngine
from repro.serve.paged_kv import PagedKVPool
from repro.serve.scheduler import ServeRequest
from repro.system.baselines import SlidingWindowGpuSystem
from repro.system.engine import LongSightSystem
from tests.conftest import TINY

pytestmark = pytest.mark.chaos

LS = LongSightConfig(window=8, n_sink=4, top_k=12, thresholds=3)
OUTPUT = 24


@pytest.fixture(scope="module")
def model():
    return Transformer(TINY, seed=0)


def _engine():
    return LongSightSystem(LongSightConfig(window=1024, n_sink=16,
                                           top_k=1024, use_itq=True))


def _requests(n, prompt=32768, output=OUTPUT, spacing=0.0):
    rng = np.random.default_rng(0)
    return [ServeRequest(request_id=i,
                         prompt=rng.integers(0, TINY.vocab_size, size=20),
                         max_new_tokens=output, arrival_s=i * spacing,
                         charged_prompt_tokens=prompt)
            for i in range(n)]


def _supervised(plan):
    """Per-session supervised offload, each session its own fault stream."""
    def factory(request):
        return DrexOffloadBackend(
            TINY, LS, plan=dataclasses.replace(
                plan, seed=plan.seed + request.request_id))
    return factory


def _serve(model, system, requests, factory):
    engine = ServeEngine(
        model, PagedKVPool(TINY, n_blocks=64, block_tokens=16), factory,
        timing=AnalyticTiming(system, LLAMA3_8B))
    return engine.run(requests)


class TestFaultModel:
    """The serving sweep's fault model: the mix injected at each rate."""

    def test_validation(self):
        with pytest.raises(ValueError):
            _fault_mix(1.5, seed=0)
        with pytest.raises(ValueError):
            _fault_mix(-0.1, seed=0)

    def test_any_faults(self):
        assert _fault_mix(0.0, seed=0) == FaultPlan.none()
        mix = _fault_mix(0.1, seed=3)
        assert mix.seed == 3
        assert mix.cxl_timeout_rate == 0.1
        assert mix.kso_corruption_rate == pytest.approx(0.025)


class TestZeroFaultCompatibility:
    def test_zero_rate_matches_no_fault_model(self, model):
        """A rate-0 plan must not change the trajectory at all."""
        def workload():
            return Trace((Tenant(6, 20, 16, seed=3, rate=2.0,
                                 charged=32768),)).requests()

        base_requests, faulted_requests = workload(), workload()
        base = _serve(model, _engine(), base_requests,
                      _supervised(FaultPlan.none()))
        faulted = _serve(model, _engine(), faulted_requests,
                         _supervised(_fault_mix(0.0, seed=5)))
        assert faulted.clock_s == base.clock_s
        assert faulted.tokens_generated == base.tokens_generated
        assert faulted.degraded_tokens == 0
        assert faulted.preemptions == 0
        assert [e.finished_s for e in faulted.events] == \
            [e.finished_s for e in base.events]
        assert [r.outputs for r in faulted_requests] == \
            [r.outputs for r in base_requests]


class TestDegradation:
    def test_partial_rate_degrades_some_tokens(self, model):
        report = _serve(model, _engine(), _requests(4),
                        _supervised(FaultPlan.uniform(0.1, seed=7)))
        assert len(report.completed) == 4
        assert 0.0 < report.degraded_token_fraction < 1.0
        assert report.degraded_tokens == \
            sum(e.degraded_tokens for e in report.events)

    def test_total_failure_completes_fully_degraded(self, model):
        """The acceptance anchor: at 100% offload failure every session
        still finishes, pinned to the dense fallback, and every decoded
        token degrades (the first comes from prefill)."""
        requests = _requests(5)
        report = _serve(model, _engine(), requests,
                        _supervised(FaultPlan(cxl_timeout_rate=1.0)))
        assert len(report.completed) == 5
        assert report.tokens_generated == 5 * OUTPUT
        assert report.degraded_tokens == 5 * (OUTPUT - 1)
        assert all(r.pinned_dense for r in requests)
        assert len(report.shed) == 5 and report.availability == 0.0

    def test_degraded_steps_are_cheaper(self):
        engine = _engine()
        contexts = [131072] * 4
        healthy = engine.step_latency_s(LLAMA3_8B, contexts, [False] * 4)
        degraded = engine.step_latency_s(LLAMA3_8B, contexts, [True] * 4)
        mixed = engine.step_latency_s(LLAMA3_8B, contexts,
                                      [True, True, False, False])
        assert healthy == engine.step_latency_s(LLAMA3_8B, contexts)
        assert degraded < healthy
        assert degraded <= mixed <= healthy

    def test_sliding_window_baseline_is_fault_immune(self, model):
        sliding = LS.replace(top_k=0)
        report = _serve(model, SlidingWindowGpuSystem(window=1024, n_sink=16),
                        _requests(4),
                        lambda request: LongSightAttention(sliding))
        assert len(report.completed) == 4
        assert report.degraded_token_fraction == 0.0


class TestReproducibility:
    def _run(self, model, seed):
        requests = _requests(5, spacing=0.2)
        report = _serve(model, _engine(), requests,
                        _supervised(FaultPlan.uniform(0.1, seed=seed)))
        return (report.clock_s, report.tokens_generated,
                report.degraded_tokens,
                tuple(e.shed for e in report.events),
                tuple(e.finished_s for e in report.events),
                tuple(tuple(r.outputs) for r in requests))

    def test_same_seed_same_trajectory(self, model):
        assert self._run(model, 9) == self._run(model, 9)

    def test_different_seed_diverges(self, model):
        assert self._run(model, 9)[2:] != self._run(model, 10)[2:]
