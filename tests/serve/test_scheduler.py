"""Scheduler policy unit tests: admission, assembly, degradation, preemption.

The scheduler is model-free by design, so these tests drive it directly
with synthetic requests and a small pool — no transformer involved.
"""

import numpy as np
import pytest

from repro.serve.paged_kv import PagedKVPool
from repro.serve.scheduler import (SHED_AFTER_DEGRADED,
                                   ContinuousBatchScheduler, RequestState,
                                   ServeRequest, SloPolicy)
from tests.conftest import TINY


def _request(i, prompt_tokens=8, max_new=4, arrival=0.0):
    return ServeRequest(request_id=i,
                        prompt=np.zeros(prompt_tokens, dtype=np.int64),
                        max_new_tokens=max_new, arrival_s=arrival)


def _scheduler(n_blocks=8, block_tokens=4, **policy):
    pool = PagedKVPool(TINY, n_blocks=n_blocks, block_tokens=block_tokens)
    return ContinuousBatchScheduler(pool, SloPolicy(**policy)), pool


class TestAdmission:
    def test_fifo_by_arrival(self):
        sched, _ = _scheduler()
        sched.submit(_request(1, arrival=2.0))
        sched.submit(_request(0, arrival=1.0))
        admitted = sched.admit(now=3.0)
        assert [r.request_id for r in admitted] == [0, 1]
        assert all(r.state is RequestState.PREFILL for r in admitted)
        assert all(r.events.admitted_s == 3.0 for r in admitted)

    def test_capacity_bounds_admission(self):
        # each prompt needs ceil(16/4) = 4 blocks; pool holds 8 -> 2 fit,
        # cumulatively within one admit() call (lazy allocation must not
        # let one free-list snapshot over-admit)
        sched, _ = _scheduler(n_blocks=8)
        for i in range(4):
            sched.submit(_request(i, prompt_tokens=16))
        admitted = sched.admit(now=0.0)
        assert len(admitted) == 2
        assert len(sched.queued) == 2

    def test_queue_timeout_sheds_stale_requests(self):
        sched, _ = _scheduler(queue_timeout_s=1.0)
        sched.submit(_request(0, arrival=0.0))
        sched.submit(_request(1, arrival=5.0))
        admitted = sched.admit(now=5.5)
        assert [r.request_id for r in admitted] == [1]
        stale = sched.finished[0]
        assert stale.request_id == 0
        assert stale.events.rejected and stale.events.shed

    def test_impossible_fit_rejected_not_stuck(self):
        sched, pool = _scheduler(n_blocks=2)
        sched.submit(_request(0, prompt_tokens=100))  # can never fit
        sched.submit(_request(1, prompt_tokens=4, arrival=0.1))
        admitted = sched.admit(now=0.5)
        # the impossible head was shed instead of clogging the queue
        assert [r.request_id for r in admitted] == [1]
        assert sched.finished[0].events.rejected

    def test_admission_waits_on_blocks_promised_to_a_running_prefill(self):
        sched, _ = _scheduler(n_blocks=3)
        sched.submit(_request(0))  # whole session: 3 blocks == whole pool
        # idle system: the request fits, it is admitted
        assert len(sched.admit(now=0.0)) == 1
        sched.running[0].cache = sched.pool.new_cache()
        sched.submit(_request(1))
        # busy system: the running prefill's 2 unclaimed prompt blocks are
        # promised, so 3 free < 2 promised + 2 needed -> wait, not shed
        assert sched.admit(now=0.0) == []
        assert len(sched.queued) == 1

    def test_capacity_rule_blocks_and_rejects(self):
        """A modeled system holding 100 charged tokens: the head waits
        while the running sessions plus it do not fit, and is rejected
        when its prompt plus full output could never fit alone."""
        pool = PagedKVPool(TINY, n_blocks=64, block_tokens=4)
        seen = []

        def admits(contexts):
            seen.append(list(contexts))
            return sum(contexts) <= 100
        sched = ContinuousBatchScheduler(pool, SloPolicy(), admits=admits)
        for i, charged in enumerate((60, 30, 97, 20)):
            request = _request(i, arrival=0.1 * i)
            request.charged_prompt_tokens = charged
            sched.submit(request)
        admitted = sched.admit(now=1.0)
        # 60 + 30 fit; 97 + 4 outputs never fits; 60 + 30 + 20 waits
        assert [r.request_id for r in admitted] == [0, 1]
        assert [r.request_id for r in sched.finished] == [2]
        assert sched.finished[0].events.rejected
        assert [r.request_id for r in sched.queued] == [3]
        assert [60, 30, 20] in seen and [101] in seen


class TestAssembly:
    def test_decode_first_with_caps(self):
        sched, _ = _scheduler(n_blocks=64, max_decode_batch=2)
        requests = [_request(i, arrival=i * 0.1) for i in range(5)]
        for r in requests:
            sched.submit(r)
        sched.admit(now=1.0)
        for r in requests[:3]:
            r.state = RequestState.DECODE
        plan = sched.assemble()
        assert [r.request_id for r in plan.decodes] == [0, 1]
        assert [r.request_id for r in plan.prefills] == [3]

    def test_empty_plan_when_idle(self):
        sched, _ = _scheduler()
        assert sched.assemble().empty


class TestDegradation:
    def test_pins_after_consecutive_budget(self):
        sched, _ = _scheduler()
        request = _request(0)
        request.outputs.append(0)
        for _ in range(SHED_AFTER_DEGRADED - 1):
            sched.note_token(request, 0.0, degraded=True)
        assert not request.pinned_dense
        sched.note_token(request, 0.0, degraded=False)  # healthy resets
        assert request.consecutive_degraded == 0
        for _ in range(SHED_AFTER_DEGRADED):
            sched.note_token(request, 0.0, degraded=True)
        assert request.pinned_dense
        assert request.events.degraded_tokens == 2 * SHED_AFTER_DEGRADED - 1

    def test_pinned_session_retires_as_shed_with_output(self):
        sched, pool = _scheduler()
        request = _request(0)
        sched.submit(request)
        sched.admit(now=0.0)
        request.cache = pool.new_cache()
        request.pinned_dense = True
        sched.request_finished(request, now=1.0)
        assert request.state is RequestState.SHED
        assert request.events.shed
        assert request.events.finished_s == 1.0
        assert pool.n_free == pool.n_blocks


class TestPreemption:
    def _running_pair(self):
        sched, pool = _scheduler(n_blocks=8)
        old = _request(0, arrival=0.0)
        young = _request(1, arrival=1.0)
        for r in (old, young):
            sched.submit(r)
        sched.admit(now=0.0)
        sched.admit(now=1.0)
        for r in (old, young):
            r.cache = pool.new_cache()
            r.cache.ensure_tokens(8)
        return sched, pool, old, young

    def test_victim_is_youngest_admitted(self):
        sched, pool, old, young = self._running_pair()
        victim = sched.preempt_victim(needy=old)
        assert victim is young
        assert young.state is RequestState.QUEUED
        assert young.cache is None
        assert young.events.preemptions == 1
        assert sched.log.counts["preempt"] == 1
        # victim's blocks are back (only old's 2 blocks remain held)
        assert pool.n_used == 2
        # and it re-enters the queue for fair re-admission
        assert sched.queued == [young]

    def test_withdraw_takes_a_request_out_wherever_it_is(self):
        """Relocation's one scheduler call: a running request is detached
        (blocks freed), a queued one dequeued, an unknown one ignored."""
        sched, pool, old, young = self._running_pair()
        queued = _request(2, arrival=2.0)
        sched.submit(queued)
        sched.withdraw(young)
        assert young.state is RequestState.QUEUED and young.cache is None
        assert sched.running == [old] and pool.n_used == 2
        sched.withdraw(queued)
        sched.withdraw(_request(3))
        assert sched.queued == [] and sched.running == [old]
        assert "preempt" not in sched.log.counts

    def test_no_victim_when_alone(self):
        sched, pool = _scheduler()
        lone = _request(0)
        sched.submit(lone)
        sched.admit(now=0.0)
        lone.cache = pool.new_cache()
        assert sched.preempt_victim(needy=lone) is None

    def test_resume_tokens_replay_discipline(self):
        """A preempted request re-prefills prompt + outputs[:-1] and keeps
        the last sampled token pending for a true decode step."""
        request = _request(0, prompt_tokens=4)
        np.testing.assert_array_equal(request.resume_tokens, request.prompt)
        request.outputs = [7, 9, 11]
        resumed = request.resume_tokens
        np.testing.assert_array_equal(resumed[:4], request.prompt)
        np.testing.assert_array_equal(resumed[4:], [7, 9])


class TestPolicyValidation:
    @pytest.mark.parametrize("kwargs", [
        {"max_decode_batch": 0},
    ])
    def test_bad_knobs_rejected(self, kwargs):
        with pytest.raises(ValueError):
            SloPolicy(**kwargs)
