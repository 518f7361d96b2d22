"""Fault-aware serving-simulator tests."""

import numpy as np
import pytest

from repro.core.config import LongSightConfig
from repro.llm.config import LLAMA3_8B
from repro.serve.crossval import poisson_workload
from repro.serve.engine import AnalyticTiming
from repro.serve.scheduler import ServeRequest
from repro.system.baselines import SlidingWindowGpuSystem
from repro.system.engine import LongSightSystem
from repro.system.serving_sim import ServingFaultModel, ServingSimulator

pytestmark = pytest.mark.chaos


def _engine():
    return LongSightSystem(LongSightConfig(window=1024, n_sink=16,
                                           top_k=1024, use_itq=True))


def _requests(n, prompt=32768, output=24, spacing=0.0):
    return [ServeRequest(request_id=i, prompt=np.zeros(0, dtype=np.int64),
                         max_new_tokens=output, arrival_s=i * spacing,
                         charged_prompt_tokens=prompt)
            for i in range(n)]


def _sim(system, faults=None):
    return ServingSimulator(AnalyticTiming(system, LLAMA3_8B), faults=faults)


class TestFaultModel:
    def test_validation(self):
        with pytest.raises(ValueError):
            ServingFaultModel(offload_failure_rate=1.5)
        with pytest.raises(ValueError):
            ServingFaultModel(failures_to_backoff=0)
        with pytest.raises(ValueError):
            ServingFaultModel(backoff_s=-1.0)

    def test_any_faults(self):
        assert not ServingFaultModel().any_faults
        assert ServingFaultModel(offload_failure_rate=0.1).any_faults


class TestZeroFaultCompatibility:
    def test_zero_rate_matches_no_fault_model(self):
        """faults with rate 0 must not change the trajectory at all."""
        workload = lambda: poisson_workload(  # noqa: E731
            6, 2.0, 32768, 16, seed=3)
        base = _sim(_engine()).run(workload())
        faulted = _sim(
            _engine(),
            faults=ServingFaultModel(offload_failure_rate=0.0, seed=5),
        ).run(workload())
        assert faulted.clock_s == base.clock_s
        assert faulted.tokens_generated == base.tokens_generated
        assert faulted.degraded_tokens == 0
        assert faulted.preemptions == 0
        assert [e.finished_s for e in faulted.events] == \
            [e.finished_s for e in base.events]


class TestDegradation:
    def test_partial_rate_degrades_some_tokens(self):
        report = _sim(
            _engine(),
            faults=ServingFaultModel(offload_failure_rate=0.3, seed=7),
        ).run(_requests(4))
        assert len(report.completed) == 4
        assert 0.0 < report.degraded_token_fraction < 1.0
        assert report.degraded_tokens == \
            sum(e.degraded_tokens for e in report.events)
        assert report.step_hist.count > 0
        assert report.step_percentile_s(50.0) \
            <= report.step_percentile_s(99.0)

    def test_total_failure_completes_fully_degraded(self):
        """The acceptance anchor: at 100% offload failure every session
        still finishes (via the dense fallback) and every token degrades."""
        report = _sim(
            _engine(),
            faults=ServingFaultModel(offload_failure_rate=1.0, seed=0),
        ).run(_requests(5))
        assert len(report.completed) == 5
        assert report.degraded_token_fraction == 1.0
        assert report.tokens_generated == 5 * 24

    def test_degraded_steps_are_cheaper(self):
        engine = _engine()
        contexts = [131072] * 4
        healthy = engine.step_latency_degraded_s(LLAMA3_8B, contexts,
                                                 [False] * 4)
        degraded = engine.step_latency_degraded_s(LLAMA3_8B, contexts,
                                                  [True] * 4)
        mixed = engine.step_latency_degraded_s(LLAMA3_8B, contexts,
                                               [True, True, False, False])
        assert healthy == engine.step_latency_s(LLAMA3_8B, contexts)
        assert degraded < healthy
        assert degraded <= mixed <= healthy


class TestBackoffAndShed:
    def test_backoff_reenters_admission(self):
        faults = ServingFaultModel(offload_failure_rate=1.0,
                                   failures_to_backoff=4, backoff_s=0.25,
                                   max_backoffs=100, seed=1)
        requests = _requests(2, output=24)
        report = _sim(_engine(), faults=faults).run(requests)
        assert report.preemptions > 0
        assert len(report.completed) == 2
        assert all(e.preemptions > 0 for e in report.events)
        assert not any(e.shed for e in report.events)
        assert report.availability == 1.0
        # Backoff time is real: completion is delayed past the no-backoff
        # trajectory.
        assert report.clock_s > faults.backoff_s
        # Re-entry moves the request's queue arrival; the event log keeps
        # the original, so queueing delay is measured from first arrival.
        assert all(r.arrival_s > r.events.arrival_s for r in requests)

    def test_shed_after_max_backoffs(self):
        faults = ServingFaultModel(offload_failure_rate=1.0,
                                   failures_to_backoff=2, backoff_s=0.1,
                                   max_backoffs=1, seed=1)
        requests = _requests(3, output=24)
        report = _sim(_engine(), faults=faults).run(requests)
        # Shed sessions still complete, pinned to the dense fallback.
        assert len(report.completed) == 3
        assert len(report.shed) == 3
        assert report.availability == 0.0
        # One requeue plus the backoff that exceeded the budget and shed.
        assert all(e.preemptions == 2 for e in report.events)
        assert all(r.pinned_dense for r in requests)

    def test_sliding_window_baseline_is_fault_immune(self):
        system = SlidingWindowGpuSystem(window=1024, n_sink=16)
        report = _sim(system).run(_requests(4))
        assert len(report.completed) == 4
        assert report.degraded_token_fraction == 0.0


class TestReproducibility:
    def _run(self, seed):
        faults = ServingFaultModel(offload_failure_rate=0.4,
                                   failures_to_backoff=3, backoff_s=0.2,
                                   max_backoffs=2, seed=seed)
        report = _sim(_engine(), faults=faults) \
            .run(_requests(5, spacing=0.2))
        return (report.clock_s, report.tokens_generated,
                report.degraded_tokens, report.preemptions,
                tuple(e.shed for e in report.events),
                tuple(e.finished_s for e in report.events))

    def test_same_seed_same_trajectory(self):
        assert self._run(9) == self._run(9)

    def test_different_seed_diverges(self):
        assert self._run(9)[2:] != self._run(10)[2:]
