"""Overload brownout ladder: staged degradation before shedding.

Scheduler-level tests drive :meth:`update_brownout` directly with
synthetic queues; engine-level tests check the per-token attribution
invariant (every token served below full quality names its stage) and
the no-ladder bit-identity guarantee (a configured-but-idle ladder
changes nothing).
"""

import numpy as np
import pytest

from repro.core.config import LongSightConfig, level_config
from repro.core.hybrid import LongSightAttention, SlidingWindowAttention
from repro.drex.backend import DrexOffloadBackend
from repro.llm.model import Transformer
from repro.obs import MetricsRegistry, Obs, Tracer
from repro.serve.engine import ServeEngine
from repro.serve.paged_kv import PagedKVPool
from repro.serve.scheduler import (BROWNOUT_STAGES, BrownoutPolicy,
                                   ContinuousBatchScheduler, RequestState,
                                   ServeRequest, SloPolicy)
from tests.conftest import TINY

LS = LongSightConfig(window=8, n_sink=4, top_k=12, thresholds=3)


def _request(i, prompt_tokens=8, max_new=4, arrival=0.0):
    return ServeRequest(request_id=i,
                        prompt=np.zeros(prompt_tokens, dtype=np.int64),
                        max_new_tokens=max_new, arrival_s=arrival)


def _scheduler(brownout, n_blocks=8, block_tokens=4, **policy):
    pool = PagedKVPool(TINY, n_blocks=n_blocks, block_tokens=block_tokens)
    return ContinuousBatchScheduler(
        pool, SloPolicy(brownout=brownout, **policy))


def _queue(sched, n, arrival=0.0):
    for i in range(n):
        sched.submit(_request(100 + i, arrival=arrival + i * 1e-3))


class TestPolicyValidation:
    def test_stage_names_cover_the_ladder(self):
        assert BROWNOUT_STAGES == ("normal", "shrink_topk",
                                   "raise_threshold", "dense_pin", "shed")

    @pytest.mark.parametrize("kwargs", [
        dict(queue_high=(6, 10, 14)),            # not four stages
        dict(queue_high=(6, 6, 14, 18)),         # not increasing
        dict(budget_fractions=(0.5, 0.25, 0.75, 1.0)),
        dict(admit_per_step=0),
        dict(shed_to_depth=0),
    ])
    def test_invalid_knobs_raise(self, kwargs):
        with pytest.raises(ValueError):
            BrownoutPolicy(**kwargs)


class TestLadderTransitions:
    def test_escalation_is_immediate(self):
        sched = _scheduler(BrownoutPolicy(queue_high=(2, 4, 6, 8)))
        _queue(sched, 6)
        assert sched.update_brownout(now=0.1) == 3
        assert sched.log.counts.get("brownout", 0) == 1

    def test_deescalation_is_one_stage_with_hysteresis(self):
        sched = _scheduler(BrownoutPolicy(queue_high=(2, 4, 6, 8)))
        _queue(sched, 6)
        assert sched.update_brownout(now=0.1) == 3
        # Drain below the *current* stage's entry point: not enough —
        # exit needs depth <= EXIT_FRACTION * entry (hysteresis against
        # chatter around the threshold).
        sched._queues["default"] = sched._queues["default"][:4]
        assert sched.update_brownout(now=0.2) == 3  # 4 > 0.5 * 6
        sched._queues["default"] = sched._queues["default"][:3]
        assert sched.update_brownout(now=0.3) == 2  # one stage down
        assert sched.update_brownout(now=0.4) == 2  # 3 > 0.5 * 4
        sched._queues["default"] = []
        # Even an empty queue steps down one stage per pass.
        assert sched.update_brownout(now=0.5) == 1
        assert sched.update_brownout(now=0.6) == 0

    def test_head_wait_signal_escalates(self):
        sched = _scheduler(BrownoutPolicy(
            queue_high=(50, 60, 70, 80), ttft_budget_s=1.0,
            budget_fractions=(0.25, 0.5, 0.75, 1.0)))
        _queue(sched, 1, arrival=0.0)
        assert sched.update_brownout(now=0.6) == 2    # wait 0.6 >= 0.5
        assert sched.update_brownout(now=1.1) == 4    # budget blown

    def test_stage4_sheds_youngest_beyond_depth(self):
        sched = _scheduler(BrownoutPolicy(queue_high=(1, 2, 3, 4),
                                          shed_to_depth=2))
        _queue(sched, 6)
        assert sched.update_brownout(now=0.1) == 4
        kept = [r.request_id for r in sched.queued]
        assert kept == [100, 101]  # oldest kept, youngest shed
        shed = [r.request_id for r in sched.finished]
        assert sorted(shed) == [102, 103, 104, 105]
        assert all(r.events.shed and r.events.rejected
                   for r in sched.finished)
        assert [r.data["cause"] for r in sched.log.records
                if r.kind == "reject"] == ["brownout"] * 4

    def test_admission_paced_while_browned_out(self):
        sched = _scheduler(BrownoutPolicy(queue_high=(2, 10, 11, 12),
                                          admit_per_step=1),
                           n_blocks=16)
        _queue(sched, 4)
        sched.update_brownout(now=0.1)
        assert sched.brownout_stage == 1
        assert len(sched.admit(now=0.1)) == 1  # paced, capacity for more
        sched.brownout_stage = 0
        assert len(sched.admit(now=0.1)) == 3  # normal admission

    def test_no_policy_is_always_stage_zero(self):
        sched = _scheduler(None)
        _queue(sched, 20)
        assert sched.update_brownout(now=5.0) == 0
        assert sched.log.counts.get("brownout", 0) == 0


class TestEngineAttribution:
    @pytest.fixture(scope="class")
    def model(self):
        return Transformer(TINY, seed=0)

    def _run(self, model, brownout, n_requests=6, max_new=6, obs=None):
        rng = np.random.default_rng(3)
        pool = PagedKVPool(TINY, n_blocks=64, block_tokens=16, obs=obs)
        engine = ServeEngine(
            model, pool, lambda r: LongSightAttention(LS),
            policy=SloPolicy(max_decode_batch=2, brownout=brownout),
            obs=obs)
        requests = [ServeRequest(
            request_id=i,
            prompt=rng.integers(0, TINY.vocab_size, size=12),
            max_new_tokens=max_new, arrival_s=0.0)
            for i in range(n_requests)]
        report = engine.run(requests)
        return report, requests, engine

    def test_idle_ladder_is_bit_identical_to_no_ladder(self, model):
        # Entry points no burst of 6 can reach: the configured ladder
        # must never engage, and outputs must match a ladder-free run.
        lazy = BrownoutPolicy(queue_high=(50, 60, 70, 80))
        _, plain, _ = self._run(model, None)
        report, laddered, _ = self._run(model, lazy)
        assert [r.outputs for r in laddered] == [r.outputs for r in plain]
        assert report.brownout_tokens == 0
        assert report.as_dict()["brownout"]["stage_tokens"] == {}

    def test_every_degraded_token_names_its_stage(self, model):
        # Aggressive ladder: stages engage while the queue drains; the
        # per-request attribution must sum to the report-level count and
        # only name real ladder stages.
        eager = BrownoutPolicy(queue_high=(1, 2, 3, 50),
                               admit_per_step=1)
        report, requests, _ = self._run(model, eager, n_requests=8)
        assert report.brownout_tokens > 0
        per_request = sum(r.events.brownout_token_total for r in requests)
        assert per_request == report.brownout_tokens
        for stage in report.brownout_stage_tokens:
            assert 1 <= stage <= 3  # stage 4 sheds, it never serves
        stage_sum = sum(report.brownout_stage_tokens.values())
        assert stage_sum == report.brownout_tokens

    def test_browned_tokens_counted_in_registry_per_stage(self, model):
        # Per-stage brownout tokens are counted once, by the record
        # stream's folds: the report's per-stage account pools the
        # requests' per-stage counts, and a live metrics registry holds
        # no second copy of them.
        eager = BrownoutPolicy(queue_high=(1, 2, 3, 50),
                               admit_per_step=1)
        obs = Obs(MetricsRegistry(enabled=True), Tracer(enabled=False))
        report, requests, engine = self._run(model, eager, n_requests=8,
                                             obs=obs)
        per_stage = {}
        for r in requests:
            for stage, count in r.events.brownout_tokens.items():
                per_stage[stage] = per_stage.get(stage, 0) + count
        assert per_stage and per_stage == report.brownout_stage_tokens
        assert engine.obs is obs
        assert not [name for name in obs.metrics.snapshot()
                    if "brownout" in name]


class TestBrownoutVariantsStack:
    """The engine builds one backend per request; under brownout each
    gets a ``with_config`` variant.  The variant configs of one (base
    config, stage) are equal values, and backends stack by config value,
    so the browned-out batch still decodes in one stacked attention call
    per layer — under overload, when the batch is at its fullest."""

    @pytest.fixture(scope="class")
    def model(self):
        return Transformer(TINY, seed=0)

    def test_stage1_step_is_one_stacked_call_per_layer(self, model,
                                                       stacked_calls):
        rng = np.random.default_rng(5)
        pool = PagedKVPool(TINY, n_blocks=64, block_tokens=16)
        engine = ServeEngine(model, pool, lambda r: LongSightAttention(LS),
                             policy=SloPolicy(brownout=BrownoutPolicy()))
        requests = [ServeRequest(request_id=i, max_new_tokens=4,
                                 prompt=rng.integers(0, TINY.vocab_size,
                                                     size=10 + 3 * i))
                    for i in range(5)]
        twins = []
        for request in requests:
            engine._attach(request)
            model.prefill(request.prompt, request.cache,
                          backend=request.backend)
            twins.append(pool.new_cache())
            model.prefill(request.prompt, twins[-1],
                          backend=request.backend)
        assert len({id(r.backend) for r in requests}) == len(requests)
        staged = [engine._served_backend(r, 1) for r in requests]
        backends = [backend for backend, _ in staged]
        assert [applied for _, applied in staged] == [1] * len(requests)
        assert len({id(b) for b in backends}) == len(requests)
        assert len({b.config for b in backends}) == 1
        assert len({b.stack_key() for b in backends}) == 1
        assert backends[0].config.top_k == LS.top_k // 2
        # The same config on the next token: it stacks with this one.
        assert engine._served_backend(requests[0], 1)[0].stack_key() \
            == backends[0].stack_key()
        stage2 = engine._served_backend(requests[0], 2)[0]
        assert stage2.config == engine._served_backend(
            requests[1], 2)[0].config
        assert stage2.config != backends[0].config

        stacked_calls.clear()
        tokens = [3, 1, 4, 1, 5]
        stacked = model.decode_step_batch(
            tokens, [r.cache for r in requests], backends)
        assert stacked_calls == [(backends[0].config, layer, len(requests))
                                 for layer in range(TINY.n_layers)]
        for i, backend in enumerate(backends):      # the per-session path
            np.testing.assert_array_equal(
                stacked[i],
                model.decode_step(tokens[i], twins[i], backend=backend))

    def test_stage3_step_is_one_stacked_call_per_layer(self, model,
                                                       stacked_calls):
        """Stage 3 is the same kernel at ``top_k = 0``: the whole batch is
        one call per layer-step, and each row carries the bits of the
        public sliding-window baseline stepped alone."""
        rng = np.random.default_rng(6)
        pool = PagedKVPool(TINY, n_blocks=64, block_tokens=16)
        engine = ServeEngine(model, pool, lambda r: LongSightAttention(LS),
                             policy=SloPolicy(brownout=BrownoutPolicy()))
        requests = [ServeRequest(request_id=i, max_new_tokens=4,
                                 prompt=rng.integers(0, TINY.vocab_size,
                                                     size=10 + 6 * i))
                    for i in range(5)]
        twins = []
        for request in requests:
            engine._attach(request)
            base = request.backend
            model.prefill(request.prompt, request.cache, backend=base)
            twins.append(pool.new_cache())
            model.prefill(request.prompt, twins[-1], backend=base)
        staged = [engine._served_backend(r, 3) for r in requests]
        backends = [backend for backend, _ in staged]
        assert [level for _, level in staged] == [3] * len(requests)
        assert len({b.config for b in backends}) == 1
        assert len({b.stack_key() for b in backends}) == 1
        assert backends[0].config == LS.replace(top_k=0)
        assert all(r.backend.config is LS for r in requests)   # not swapped

        stacked_calls.clear()
        tokens = [3, 1, 4, 1, 5]
        stacked = model.decode_step_batch(
            tokens, [r.cache for r in requests], backends)
        assert stacked_calls == [(backends[0].config, layer, len(requests))
                                 for layer in range(TINY.n_layers)]
        sliding = SlidingWindowAttention(window=LS.window, n_sink=LS.n_sink)
        for i in range(len(requests)):
            np.testing.assert_array_equal(
                stacked[i],
                model.decode_step(tokens[i], twins[i], backend=sliding))

    @pytest.mark.parametrize("level", [0, 1, 2, 3])
    def test_equal_valued_configs_stack_at_every_level(self, model, level,
                                                       stacked_calls):
        """Backends built from distinct but equal configs, one per
        request, decode in one stacked call per layer at every quality
        level, each row bit-equal to stepping its session alone."""
        rng = np.random.default_rng(12)
        per_layer = np.full((TINY.n_layers, TINY.n_kv_heads), 3)
        pool = PagedKVPool(TINY, n_blocks=64, block_tokens=16)
        engine = ServeEngine(
            model, pool, lambda r: LongSightAttention(LS.replace(
                thresholds=per_layer.copy())),
            policy=SloPolicy(brownout=BrownoutPolicy()))
        requests = [ServeRequest(request_id=i, max_new_tokens=4,
                                 prompt=rng.integers(0, TINY.vocab_size,
                                                     size=12 + 5 * i))
                    for i in range(3)]
        twins = []
        for request in requests:
            engine._attach(request)
            model.prefill(request.prompt, request.cache,
                          backend=request.backend)
            twins.append(pool.new_cache())
            model.prefill(request.prompt, twins[-1],
                          backend=request.backend)
        assert len({id(r.backend.config) for r in requests}) == len(requests)
        backends = [engine._served_backend(r, level)[0] for r in requests]

        stacked_calls.clear()
        tokens = [2, 7, 1]
        stacked = model.decode_step_batch(
            tokens, [r.cache for r in requests], backends)
        assert stacked_calls == [(backends[0].config, layer, len(requests))
                                 for layer in range(TINY.n_layers)]
        for i, backend in enumerate(backends):
            np.testing.assert_array_equal(
                stacked[i],
                model.decode_step(tokens[i], twins[i], backend=backend))

    @pytest.mark.parametrize("kind", ["longsight", "offload"])
    def test_deescalating_session_equals_the_solo_replay_of_its_levels(
            self, model, monkeypatch, kind):
        """A run that climbs to stage 3 and drains back to 0: every
        session's stream equals solo decoding at the level each of its
        tokens was served at — from the token it de-escalates on, the
        full-quality backend again, on the cache the floor left.  An
        offload session is served at stages 1 and 2 too, by its backend's
        variant, which shares the session's device."""
        levels = {}
        served = ServeEngine._served_backend

        def spy(self, request, stage=0):
            backend, level = served(self, request, stage)
            if request.state is RequestState.DECODE:
                levels.setdefault(request.request_id, []).append(level)
            return backend, level

        def make(request):
            return LongSightAttention(LS) if kind == "longsight" \
                else DrexOffloadBackend(TINY, LS)

        monkeypatch.setattr(ServeEngine, "_served_backend", spy)
        rng = np.random.default_rng(9)
        pool = PagedKVPool(TINY, n_blocks=128, block_tokens=16)
        engine = ServeEngine(
            model, pool, make,
            policy=SloPolicy(max_decode_batch=4, brownout=BrownoutPolicy(
                queue_high=(1, 2, 3, 50), admit_per_step=2)))
        requests = [ServeRequest(
            request_id=i, max_new_tokens=16, arrival_s=0.0,
            prompt=rng.integers(0, TINY.vocab_size, size=14 + 3 * i))
            for i in range(8)]
        report = engine.run(requests)
        assert {1, 2, 3} <= set(report.brownout_stage_tokens)
        recovered = [r for r in requests
                     if 3 in levels[r.request_id]
                     and levels[r.request_id][-1] == 0]
        assert recovered                        # some session went 3 -> 0

        floor = SlidingWindowAttention(window=LS.window, n_sink=LS.n_sink)
        for request in requests:
            base = make(request)
            at_level = {0: base, 3: floor}
            for level in (1, 2):
                at_level[level] = base.with_config(
                    level_config(LS, level))
            cache = pool.new_cache()
            token = int(np.argmax(model.prefill(request.prompt, cache,
                                                backend=base)))
            replay = [token]
            for level in levels[request.request_id]:
                token = int(np.argmax(model.decode_step(
                    token, cache, backend=at_level[level])))
                replay.append(token)
            assert request.outputs == replay
            cache.free()

    def test_served_tokens_and_attribution_do_not_depend_on_stacking(
            self, model, monkeypatch, stacked_calls):
        def run():
            rng = np.random.default_rng(3)
            pool = PagedKVPool(TINY, n_blocks=64, block_tokens=16)
            engine = ServeEngine(
                model, pool, lambda r: LongSightAttention(LS),
                policy=SloPolicy(max_decode_batch=4, brownout=BrownoutPolicy(
                    queue_high=(1, 2, 3, 50), admit_per_step=2)))
            requests = [ServeRequest(
                request_id=i, max_new_tokens=6, arrival_s=0.0,
                prompt=rng.integers(0, TINY.vocab_size, size=12))
                for i in range(10)]
            report = engine.run(requests)
            return ([r.outputs for r in requests], report.brownout_tokens,
                    report.brownout_stage_tokens,
                    [r.events.brownout_token_total for r in requests])

        stacked = run()
        assert stacked[1] > 0
        assert any(n > 1 and config.top_k < LS.top_k
                   for config, _, n in stacked_calls)  # a browned-out stack
        # Every backend stacks only with itself: one session per call.
        monkeypatch.setattr(LongSightAttention, "stack_key",
                            lambda self: id(self))
        stacked_calls.clear()
        assert run() == stacked
        assert stacked_calls and all(n == 1 for _, _, n in stacked_calls)

    def test_equal_configs_per_request_stack_by_value(self, model):
        """A factory that builds an equal config per request serves what a
        shared config serves, and its variants stack by value."""
        def run(factory):
            rng = np.random.default_rng(11)
            pool = PagedKVPool(TINY, n_blocks=64, block_tokens=16)
            engine = ServeEngine(
                model, pool, factory,
                policy=SloPolicy(max_decode_batch=4, brownout=BrownoutPolicy(
                    queue_high=(1, 2, 400, 500), admit_per_step=2)))
            requests = [ServeRequest(
                request_id=i, max_new_tokens=3, arrival_s=0.0,
                prompt=rng.integers(0, TINY.vocab_size, size=9))
                for i in range(50)]
            report = engine.run(requests)
            return engine, [r.outputs for r in requests], report

        per_layer = np.full((TINY.n_layers, TINY.n_kv_heads), 3)
        shared = LongSightConfig(window=8, n_sink=4, top_k=12,
                                 thresholds=per_layer)
        _, expected, _ = run(lambda r: LongSightAttention(shared))
        engine, outputs, report = run(lambda r: LongSightAttention(
            LongSightConfig(window=8, n_sink=4, top_k=12,
                            thresholds=per_layer.copy())))
        assert outputs == expected
        assert set(report.brownout_stage_tokens) >= {1, 2}
        # Equal-valued bases give equal variants, so they stack.
        fresh = [ServeRequest(request_id=100 + i, max_new_tokens=1,
                              prompt=np.zeros(4, dtype=np.int64))
                 for i in range(2)]
        for request in fresh:
            engine._attach(request)
        a, b = (engine._served_backend(r, 2)[0] for r in fresh)
        assert a.config is not b.config
        assert a.config == b.config and a.stack_key() == b.stack_key()
        # A different value is a different key.
        other = ServeRequest(request_id=200, max_new_tokens=1,
                             prompt=np.zeros(4, dtype=np.int64))
        other.backend = LongSightAttention(shared.replace(
            thresholds=per_layer + 1))
        variant = engine._served_backend(other, 2)[0]
        assert variant.config != a.config
        assert variant.stack_key() != a.stack_key()
