"""Fleet equivalence suite: sharded serving must not change a single bit.

The acceptance anchor mirrors the engine suite's: every request served
through the :class:`FleetRouter` — including prefix-cache borrowers and
sessions migrated across workers mid-flight — produces the exact token
stream of a solo :func:`repro.llm.sampling.generate` run.
"""

import numpy as np
import pytest

from repro.core.config import LongSightConfig
from repro.core.hybrid import LongSightAttention
from repro.fleet import FleetRouter, FleetWorker, make_worker
from repro.llm.config import LLAMA3_8B
from repro.llm.model import Transformer
from repro.llm.sampling import generate
from repro.serve.paged_kv import PagedKVPool
from repro.serve.scheduler import ServeRequest
from repro.serve.engine import AnalyticTiming, ServeEngine
from repro.system.baselines import DenseGpuSystem
from tests.conftest import TINY

LS = LongSightConfig(window=8, n_sink=4, top_k=12, thresholds=3)


@pytest.fixture(scope="module")
def model():
    return Transformer(TINY, seed=0)


def _backend(_request=None):
    return LongSightAttention(LS)


def _worker(model, wid, n_blocks=64, block_tokens=16):
    return make_worker(wid, model, _backend, n_blocks=n_blocks,
                       block_tokens=block_tokens)


def _shared_prefix_requests(rng, n, prefix_tokens=48, out=8):
    """Burst arrivals sharing a block-aligned prefix (overlap => hits)."""
    prefix = rng.integers(0, TINY.vocab_size, size=prefix_tokens)
    requests = []
    for i in range(n):
        tail = rng.integers(0, TINY.vocab_size,
                            size=int(rng.integers(8, 20)))
        requests.append(ServeRequest(
            request_id=i, prompt=np.concatenate([prefix, tail]),
            max_new_tokens=out, arrival_s=0.0))
    return requests


class TestBitIdentity:
    def test_fleet_matches_solo_generate_with_prefix_hits(self, model, rng):
        requests = _shared_prefix_requests(rng, 6)
        refs = [generate(model, r.prompt, r.max_new_tokens,
                         backend=_backend()) for r in requests]
        fleet = FleetRouter([_worker(model, 0), _worker(model, 1)])
        report = fleet.run(requests)
        for request, reference in zip(requests, refs):
            assert request.outputs == list(reference)
        # the shared system prompt was actually served from the cache
        assert report.prefix_hits > 0
        assert report.prefix_hit_rate > 0
        assert report.completed == len(requests)
        # every pool fully unwinds: refcounts hit zero, no leaks
        for worker in fleet.workers:
            assert worker.pool.n_free == worker.pool.n_blocks
            assert worker.pool.shared_blocks == 0

    def test_single_worker_fleet_matches_plain_engine(self, model, rng):
        """One-worker fleet == ServeEngine.run on the same trace."""
        prompts = [rng.integers(0, TINY.vocab_size, size=n)
                   for n in (20, 33, 48)]
        fleet_requests = [
            ServeRequest(request_id=i, prompt=p, max_new_tokens=8)
            for i, p in enumerate(prompts)]
        engine_requests = [
            ServeRequest(request_id=i, prompt=p, max_new_tokens=8)
            for i, p in enumerate(prompts)]

        fleet = FleetRouter([_worker(model, 0)])
        fleet_report = fleet.run(fleet_requests)

        pool = PagedKVPool(TINY, n_blocks=64, block_tokens=16)
        engine = ServeEngine(model, pool, _backend)
        engine_report = engine.run(engine_requests)

        for a, b in zip(fleet_requests, engine_requests):
            assert a.outputs == b.outputs
        # (clocks are measured wall time here, so only the token
        # accounting is comparable across the two runs)
        assert fleet_report.tokens_generated == \
            engine_report.tokens_generated
        assert fleet_report.completed == len(engine_report.completed)


class TestMigration:
    def test_exhausted_worker_migrates_and_stays_bit_identical(
            self, model, rng):
        prompts = [rng.integers(0, TINY.vocab_size, size=40)
                   for _ in range(2)]
        refs = [generate(model, p, 12, backend=_backend())
                for p in prompts]
        # worker 0: room to admit both prompts but not to grow both
        # sessions to completion; worker 1: ample.
        cramped = _worker(model, 0, n_blocks=10, block_tokens=8)
        ample = _worker(model, 1, n_blocks=64, block_tokens=8)
        fleet = FleetRouter([cramped, ample])
        requests = [ServeRequest(request_id=i, prompt=p,
                                 max_new_tokens=12, session="s0")
                    for i, p in enumerate(prompts)]
        # session affinity pins both onto the cramped worker, forcing a
        # pool-exhaustion preemption that the router converts into a
        # cross-worker migration.
        fleet._affinity["s0"] = cramped
        report = fleet.run(requests)

        for request, reference in zip(requests, refs):
            assert request.outputs == list(reference)
        assert report.migrations >= 1
        assert report.completed == 2
        assert report.shed == 0
        migrated = [r for r in requests if r.events.migrations > 0]
        assert migrated, "no request recorded a migration"
        # the migrated request is reported by exactly one worker
        all_ids = [e.request_id for worker in report.workers
                   for e in worker.events]
        assert sorted(all_ids) == [0, 1]
        for worker in fleet.workers:
            assert worker.pool.n_free == worker.pool.n_blocks

    def test_migration_cap_falls_back_to_local_handling(self, model, rng):
        # both workers cramped: with zero migration budget the victim
        # must be requeued/shed locally, never bounced.
        prompts = [rng.integers(0, TINY.vocab_size, size=40)
                   for _ in range(2)]
        refs = [generate(model, p, 12, backend=_backend())
                for p in prompts]
        fleet = FleetRouter([_worker(model, 0, n_blocks=10, block_tokens=8),
                             _worker(model, 1, n_blocks=64, block_tokens=8)],
                            max_migrations=0)
        requests = [ServeRequest(request_id=i, prompt=p,
                                 max_new_tokens=12, session="s0")
                    for i, p in enumerate(prompts)]
        fleet._affinity["s0"] = fleet.workers[0]
        report = fleet.run(requests)
        assert report.migrations == 0
        # local preemption + recompute-resume still serves both exactly
        for request, reference in zip(requests, refs):
            assert request.outputs == list(reference)
        assert report.preemptions >= 1

    def test_migration_target_must_pass_its_capacity_rule(self, model, rng):
        """The sibling has free pool blocks but its modeled HBM is full:
        one GPU holds three 128K sessions and it runs three.  The victim
        of the cramped worker's pool exhaustion is requeued locally
        instead of landing in a queue it cannot leave."""
        def timing(obs):
            return AnalyticTiming(DenseGpuSystem(1), LLAMA3_8B)

        cramped = make_worker(0, model, _backend, n_blocks=10,
                              block_tokens=8, timing_factory=timing)
        full = make_worker(1, model, _backend, n_blocks=64, block_tokens=8,
                           timing_factory=timing)
        fleet = FleetRouter([cramped, full])
        fleet._affinity.update({"s0": cramped, "s1": full})
        prompts = [rng.integers(0, TINY.vocab_size, size=40)
                   for _ in range(2)]
        requests = [ServeRequest(request_id=i, prompt=p, max_new_tokens=12,
                                 arrival_s=0.5, session="s0",
                                 charged_prompt_tokens=131_072)
                    for i, p in enumerate(prompts)]
        requests += [ServeRequest(
            request_id=2 + i, prompt=rng.integers(0, TINY.vocab_size, size=12),
            max_new_tokens=100, session="s1", charged_prompt_tokens=131_072)
            for i in range(3)]
        report = fleet.run(requests)
        assert report.migrations == 0
        assert report.workers[0].preemptions >= 1
        assert report.workers[1].peak_decode_batch == 3
        for request, prompt in zip(requests, prompts):
            assert request.events.migrations == 0
            assert request.outputs == list(
                generate(model, prompt, 12, backend=_backend()))


class TestPlacement:
    def test_prefix_locality_beats_free_space(self, model, rng):
        """A worker holding the prompt's cached prefix wins placement
        even when a sibling has more free blocks."""
        holder = _worker(model, 0, n_blocks=32)
        empty = _worker(model, 1, n_blocks=64)
        fleet = FleetRouter([holder, empty])
        for worker in fleet.workers:
            worker.run = worker.engine.start([])

        prefix = rng.integers(0, TINY.vocab_size, size=32)
        resident = holder.pool.new_cache()
        shape = (TINY.n_kv_heads, len(prefix), TINY.head_dim)
        k = np.zeros(shape, dtype=np.float32)
        for layer in range(TINY.n_layers):
            resident.append(layer, k, k.copy())
        resident.publish_prefix(prefix)

        request = ServeRequest(
            request_id=0,
            prompt=np.concatenate([prefix, rng.integers(
                0, TINY.vocab_size, size=8)]),
            max_new_tokens=4)
        assert fleet._place(request) is holder
        # without the resident prefix, free space decides
        other = ServeRequest(
            request_id=1,
            prompt=rng.integers(0, TINY.vocab_size, size=40),
            max_new_tokens=4)
        assert fleet._place(other) is empty
        resident.free()

    def test_session_affinity_overrides_scores(self, model):
        small = _worker(model, 0, n_blocks=16)
        big = _worker(model, 1, n_blocks=64)
        fleet = FleetRouter([small, big])
        for worker in fleet.workers:
            worker.run = worker.engine.start([])
        fleet._affinity["chat-1"] = small
        request = ServeRequest(
            request_id=0, prompt=np.zeros(24, dtype=np.int64),
            max_new_tokens=4, session="chat-1")
        assert fleet._place(request) is small


class TestReportReduction:
    def test_merged_metrics_sum_worker_registries(self, model, rng):
        requests = _shared_prefix_requests(rng, 6)
        fleet = FleetRouter([_worker(model, 0), _worker(model, 1)])
        report = fleet.run(requests)
        merged = report.metrics
        per_worker = [w.obs.metrics for w in fleet.workers]
        steps = [m.counter("serve.steps").value for m in per_worker]
        assert min(steps) > 0
        assert merged.counter("serve.steps").value == sum(steps)
        # pooled prefix stats come from the pools themselves
        assert report.prefix_hits == sum(
            w.pool.prefix_hits for w in fleet.workers)
        payload = report.as_dict()
        assert payload["workers"] == 2
        assert payload["prefix"]["hits"] == report.prefix_hits
        assert len(payload["per_worker"]) == 2

    def test_every_request_reported_exactly_once(self, model, rng):
        requests = _shared_prefix_requests(rng, 5)
        fleet = FleetRouter([_worker(model, 0), _worker(model, 1)])
        report = fleet.run(requests)
        ids = sorted(e.request_id for e in report.events)
        assert ids == [0, 1, 2, 3, 4]
        assert report.tokens_generated == sum(
            len(r.outputs) for r in requests)


class TestRouterValidation:
    def test_empty_fleet_rejected(self):
        with pytest.raises(ValueError):
            FleetRouter([])

    def test_duplicate_worker_ids_rejected(self, model):
        with pytest.raises(ValueError):
            FleetRouter([_worker(model, 0), _worker(model, 0)])

    def test_shared_pool_rejected(self, model):
        worker = _worker(model, 0)
        twin = FleetWorker(1, worker.engine)
        with pytest.raises(ValueError):
            FleetRouter([worker, twin])
