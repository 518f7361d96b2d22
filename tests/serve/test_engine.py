"""ServeEngine end-to-end: bit-identity, scheduling dynamics, degradation.

The acceptance anchor for the whole serving layer: a served session's
token stream is **bit-identical** to single-session
:func:`repro.llm.sampling.generate` — through paged KV reads, chunked
prefill, concurrent batching, and even preemption + recompute-resume.
"""

import numpy as np
import pytest

from repro.core.config import LongSightConfig, level_config
from repro.core.hybrid import LongSightAttention, SlidingWindowAttention
from repro.drex.backend import DrexOffloadBackend
from repro.faults import FaultPlan
from repro.llm.config import LLAMA3_8B
from repro.llm.model import DenseBackend, Transformer
from repro.llm.sampling import generate
from repro.serve.workload import default_systems
from repro.serve.engine import AnalyticTiming, ServeEngine
from repro.serve.paged_kv import PagedKVPool
from repro.serve.scheduler import RequestState, ServeRequest
from repro.system.prefill import PrefillModel
from tests.conftest import TINY

LS = LongSightConfig(window=8, n_sink=4, top_k=12, thresholds=3)


@pytest.fixture(scope="module")
def model():
    return Transformer(TINY, seed=0)


def _prompts(rng, sizes):
    return [rng.integers(0, TINY.vocab_size, size=n) for n in sizes]


class TestBitIdentity:
    def test_single_session_longsight_matches_generate(self, model, rng):
        prompt = rng.integers(0, TINY.vocab_size, size=37)
        reference = generate(model, prompt, 10,
                             backend=LongSightAttention(LS))
        pool = PagedKVPool(TINY, n_blocks=64, block_tokens=16)
        engine = ServeEngine(model, pool,
                             lambda r: LongSightAttention(LS))
        request = ServeRequest(request_id=0, prompt=prompt,
                               max_new_tokens=10)
        engine.run([request])
        assert request.outputs == list(reference)
        assert request.state is RequestState.DONE

    def test_zero_fault_offload_matches_generate(self, model, rng):
        """The ISSUE's acceptance criterion verbatim: a zero-fault plan
        through the full supervised offload path, served vs solo."""
        prompt = rng.integers(0, TINY.vocab_size, size=33)

        def fresh_backend(_request=None):
            return DrexOffloadBackend(
                TINY, LS, plan=FaultPlan.none())

        reference = generate(model, prompt, 8, backend=fresh_backend())
        pool = PagedKVPool(TINY, n_blocks=64, block_tokens=16)
        engine = ServeEngine(model, pool, fresh_backend)
        request = ServeRequest(request_id=0, prompt=prompt,
                               max_new_tokens=8)
        engine.run([request])
        assert request.outputs == list(reference)

    def test_concurrent_sessions_each_match_generate(self, model, rng):
        prompts = _prompts(rng, (20, 33, 48, 27))
        refs = [generate(model, p, 8, backend=LongSightAttention(LS))
                for p in prompts]
        pool = PagedKVPool(TINY, n_blocks=64, block_tokens=16)
        engine = ServeEngine(model, pool, lambda r: LongSightAttention(LS))
        requests = [ServeRequest(request_id=i, prompt=p, max_new_tokens=8)
                    for i, p in enumerate(prompts)]
        report = engine.run(requests)
        assert report.peak_decode_batch > 1  # batching actually happened
        for request, reference in zip(requests, refs):
            assert request.outputs == list(reference)

    def test_multi_chunk_prefill_matches_generate(self, model, rng):
        """600-token prompt: three chunked-prefill steps on 256-token
        model-block boundaries must reproduce single-shot prefill."""
        ls = LongSightConfig(window=64, n_sink=8, top_k=32, thresholds=3)
        prompt = rng.integers(0, TINY.vocab_size, size=600)
        reference = generate(model, prompt, 6,
                             backend=LongSightAttention(ls))
        pool = PagedKVPool(TINY, n_blocks=128, block_tokens=16)
        engine = ServeEngine(model, pool, lambda r: LongSightAttention(ls))
        request = ServeRequest(request_id=0, prompt=prompt,
                               max_new_tokens=6)
        engine.run([request])
        assert request.outputs == list(reference)

    def test_preemption_resume_matches_generate(self, model, rng):
        """A pool too small for three full sessions forces preemption;
        recompute-resume must not perturb a single token."""
        prompts = _prompts(rng, (40, 40, 40))
        refs = [generate(model, p, 12, backend=DenseBackend())
                for p in prompts]
        pool = PagedKVPool(TINY, n_blocks=15, block_tokens=8)
        engine = ServeEngine(model, pool, lambda r: DenseBackend())
        requests = [ServeRequest(request_id=i, prompt=p, max_new_tokens=12)
                    for i, p in enumerate(prompts)]
        report = engine.run(requests)
        assert report.preemptions >= 1  # the scenario actually triggered
        for request, reference in zip(requests, refs):
            assert request.outputs == list(reference)
            assert request.events.finished_s is not None
        assert pool.n_free == pool.n_blocks  # all blocks returned


class TestAnalyticClock:
    def test_ttft_includes_charged_prefill(self, model, rng):
        prompt = rng.integers(0, TINY.vocab_size, size=24)
        timing = AnalyticTiming(default_systems()["longsight"], LLAMA3_8B,
                                prefill=PrefillModel())
        pool = PagedKVPool(TINY, n_blocks=32, block_tokens=16)
        engine = ServeEngine(model, pool, lambda r: LongSightAttention(LS),
                             timing=timing)
        request = ServeRequest(request_id=0, prompt=prompt,
                               max_new_tokens=6,
                               charged_prompt_tokens=32_768)
        report = engine.run([request])
        assert request.events.ttft_s is not None
        # 32k-token prefill on the paper-scale model costs real time
        assert request.events.ttft_s > 0.05
        assert request.events.tpot_s > 0.0
        assert report.clock_s >= request.events.finished_s - 1e-12
        # token timestamps are monotone
        assert request.events.token_times_s == \
            sorted(request.events.token_times_s)

    def test_resumed_prefill_charges_generated_tokens_one_to_one(
            self, model, rng):
        """A resumed session re-prefills its prompt and all but its last
        generated token: the prompt is charged at its paper-scale length,
        each generated token as one token, as ``charged_context`` counts
        them — not scaled up with the prompt."""
        charged = []

        class Recording:
            def decode_step_s(self, contexts, degraded=None):
                return 0.01

            def prefill_chunk_s(self, before, after):
                charged.append((before, after))
                return 0.0

        prompt = rng.integers(0, TINY.vocab_size, size=27)
        reference = generate(model, prompt, 12, backend=DenseBackend())
        pool = PagedKVPool(TINY, n_blocks=32, block_tokens=16)
        engine = ServeEngine(model, pool, lambda r: DenseBackend(),
                             timing=Recording())
        request = ServeRequest(request_id=0, prompt=prompt,
                               max_new_tokens=12,
                               charged_prompt_tokens=37_765,
                               outputs=[int(t) for t in reference[:10]])
        engine.run([request])
        assert charged == [(0, 37_765 + 9)]
        assert request.outputs == list(reference)

    def test_report_metrics_are_consistent(self, model, rng):
        prompts = _prompts(rng, (16, 16, 16))
        timing = AnalyticTiming(default_systems()["longsight"], LLAMA3_8B)
        pool = PagedKVPool(TINY, n_blocks=32, block_tokens=16)
        engine = ServeEngine(model, pool, lambda r: LongSightAttention(LS),
                             timing=timing)
        requests = [ServeRequest(request_id=i, prompt=p, max_new_tokens=5,
                                 charged_prompt_tokens=32_768)
                    for i, p in enumerate(prompts)]
        report = engine.run(requests)
        assert report.tokens_generated == 15
        assert report.throughput_tps > 0
        assert len(report.completed) == 3
        payload = report.as_dict()
        assert payload["ttft_p99_s"] >= payload["ttft_p50_s"]
        assert payload["tpot_p99_s"] >= payload["tpot_p50_s"]
        assert payload["pool"]["high_watermark"] <= payload["pool"]["n_blocks"]


@pytest.mark.chaos
class TestDegradation:
    def test_total_failure_sheds_in_place_with_full_output(self, model, rng):
        """With every offload timing out, every offload degrades: sessions
        must pin to the dense window, keep decoding every step, and retire
        as SHED with their *complete* output — never dropped."""
        pool = PagedKVPool(TINY, n_blocks=64, block_tokens=16)

        def factory(request):
            return DrexOffloadBackend(TINY, LS,
                                      plan=FaultPlan(cxl_timeout_rate=1.0))

        engine = ServeEngine(model, pool, factory)
        requests = [ServeRequest(request_id=i,
                                 prompt=rng.integers(0, TINY.vocab_size,
                                                     size=30),
                                 max_new_tokens=10) for i in range(2)]
        report = engine.run(requests)
        for request in requests:
            assert len(request.outputs) == 10
            assert request.pinned_dense
            assert request.state is RequestState.SHED
            assert request.events.shed
            assert request.events.degraded_tokens > 0
        assert report.availability == 0.0
        assert len(report.shed) == 2
        assert report.degraded_token_fraction > 0.5

    def test_pinned_batch_is_one_stacked_call_at_the_dense_floor(
            self, model, rng, stacked_calls):
        """Pinned sessions are served by the hybrid kernel at ``top_k =
        0``: they stack into one attention call per layer-step, the
        supervised backend stays on the request (its own calls stack only
        with itself), and — every offload failing from the first token —
        the stream is the sliding-window baseline's."""
        pool = PagedKVPool(TINY, n_blocks=64, block_tokens=16)
        built = {}

        def factory(request):
            built[request.request_id] = DrexOffloadBackend(
                TINY, LS, plan=FaultPlan(cxl_timeout_rate=1.0))
            return built[request.request_id]

        engine = ServeEngine(model, pool, factory)
        requests = [ServeRequest(request_id=i, max_new_tokens=10,
                                 prompt=rng.integers(0, TINY.vocab_size,
                                                     size=30 + 7 * i))
                    for i in range(3)]
        backends_seen = []
        step = engine.start(requests)
        while step.step():
            backends_seen.extend(
                (r.request_id, r.backend) for r in requests
                if r.pinned_dense and r.backend is not None)
        assert backends_seen and all(
            backend is built[rid] for rid, backend in backends_seen)
        # The pinned steps' calls are at the engine's top_k = 0 config,
        # one per layer, stacking every pinned session; the offload
        # backends' own kernel calls (one session each, from the kernels
        # each backend keeps, whose floor config is an equal value) are
        # not theirs.
        floor = level_config(LS, 3)
        assert floor == LS.replace(top_k=0)
        own = {id(kernel.config) for backend in built.values()
               for kernel in backend._kernels.values()}
        pinned = [(layer, n) for config, layer, n in stacked_calls
                  if id(config) not in own]
        steps = len(pinned) // TINY.n_layers
        assert steps > 0
        assert all(config == floor for config, _, _ in stacked_calls
                   if id(config) not in own)
        assert [layer for layer, _ in pinned] \
            == list(range(TINY.n_layers)) * steps
        assert max(n for _, n in pinned) == len(requests)
        assert all(n == 1 for config, _, n in stacked_calls
                   if id(config) in own)
        sliding = SlidingWindowAttention(window=LS.window, n_sink=LS.n_sink)
        for request in requests:
            assert request.events.shed
            assert request.outputs == list(generate(
                model, request.prompt, 10, backend=sliding))

    def test_zero_faults_never_degrade(self, model, rng):
        pool = PagedKVPool(TINY, n_blocks=64, block_tokens=16)

        def factory(request):
            return DrexOffloadBackend(TINY, LS, plan=FaultPlan.none())

        engine = ServeEngine(model, pool, factory)
        request = ServeRequest(request_id=0,
                               prompt=rng.integers(0, TINY.vocab_size,
                                                   size=30),
                               max_new_tokens=8)
        report = engine.run([request])
        assert not request.pinned_dense
        assert request.state is RequestState.DONE
        assert report.degraded_token_fraction == 0.0
        assert report.availability == 1.0
