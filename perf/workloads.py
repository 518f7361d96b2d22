"""The four seeded workloads of the serving ledger and their pass drivers.

Everything the benchmark holds constant lives here: the model, the
sparse-attention configuration, the scheduling policy, the virtual clock
and the *shape* of every workload (request count, prompt and output
lengths, tenants, pool sizes, crash schedule).  ``--seed`` draws the token
ids only.  Shapes are constants on purpose: the step sequence, batch
composition, preemptions and migrations are then the same for every seed,
so two runs with different seeds do the same amount of work and their
wall-clock metrics may be compared inside the bounds of ``BENCHMARK.json``.

All requests of a pass are due at ``t = 0`` (a burst, i.e. an offline
batch): the load is closed by ``max_decode_batch`` and the pool size, not
by an arrival schedule.
"""

from __future__ import annotations

import dataclasses
import hashlib
import pathlib
import time
from typing import Callable, Dict, List, Optional, Sequence

import numpy as np

from repro.core.config import LongSightConfig
from repro.core.hybrid import LongSightAttention
from repro.durable import DurableRun, recover
from repro.errors import WorkerKilledError
from repro.fleet import FleetRouter, HealthPolicy, make_worker
from repro.llm.config import ModelConfig
from repro.llm.model import Transformer
from repro.llm.sampling import generate
from repro.obs import MetricsRegistry, Obs, Tracer
from repro.serve.engine import ServeEngine
from repro.serve.paged_kv import PagedKVPool
from repro.serve.scheduler import (RequestState, ServeRequest, SloPolicy,
                                   TenantClass)
from repro.system.faults import CrashPlan

# -- constants of the benchmark ----------------------------------------------

MODEL_CONFIG = ModelConfig(name="perf", vocab_size=512, n_layers=2,
                           n_q_heads=8, n_kv_heads=2, head_dim=32, d_ff=512,
                           qk_bias=True)
MODEL_SEED = 0
#: ~10x filter ratio on this model; ``prefill_tile`` stays the library's
#: default so a change that picks the tile from the context is measured.
LONGSIGHT = LongSightConfig(window=128, n_sink=16, top_k=128, thresholds=20)
BLOCK_TOKENS = 16
MAX_DECODE_BATCH = 8
TENANTS = (TenantClass("gold", weight=4), TenantClass("bronze", weight=1))
CHAT_POLICY = SloPolicy(max_decode_batch=MAX_DECODE_BATCH,
                        tenant_classes=TENANTS)

WORKLOADS = ("long_prompt", "shared_prefix_decode", "chat_burst",
             "crash_recover")

class VirtualTiming:
    """Fixed virtual cost per decode step, decoded session, prefilled token.

    With ``timing=None`` the engine clock is measured time and the fleet
    router picks the laggard by it, so the step sequence differs from run
    to run.  These three constants make the sequence a function of the
    workload alone.  The virtual clock is never reported.
    """

    STEP_S = 1e-3
    SESSION_S = 1e-4
    PREFILL_TOKEN_S = 1e-5

    def decode_step_s(self, contexts, degraded=None) -> float:
        return self.STEP_S + self.SESSION_S * len(contexts) \
            if contexts else 0.0

    def prefill_chunk_s(self, context_before: int, context_after: int
                        ) -> float:
        return self.PREFILL_TOKEN_S * max(0, context_after - context_before)


#: Health monitoring reads wall-clock step latencies; pinned out of reach
#: so a slow step can never drain or fail over a worker mid-measurement.
INERT_HEALTH = HealthPolicy(step_deadline_s=1e9, suspect_phi=1e9,
                            fail_phi=1e9)


class StampedOutputs(list):
    """A request's ``outputs`` list that stamps wall time on ``append``.

    The only instrumentation of the untraced run.  ``times`` outlives the
    list: after a crash the rebuilt request gets a new list over the same
    ``times``, which keeps the first-seen stamp of every token index.
    """

    def __init__(self, tokens: Sequence[int], times: List[float]) -> None:
        super().__init__(tokens)
        self.times = times

    def append(self, token) -> None:
        if len(self) >= len(self.times):
            self.times.append(time.perf_counter())
        super().append(token)


# -- request generation ------------------------------------------------------

@dataclasses.dataclass(frozen=True)
class RequestSpec:
    """One request as generated from the seed (plain data, reusable)."""

    request_id: int
    prompt: np.ndarray
    max_new_tokens: int
    tenant: str = "default"


def _tokens(rng: np.random.Generator, n: int) -> np.ndarray:
    return rng.integers(0, MODEL_CONFIG.vocab_size, size=n, dtype=np.int64)


#: (prompt lengths in service order, output tokens).  The 4608-token
#: prompt crosses ``prefill_tile`` (4096), so its last two query blocks
#: run the tiled prefill path; it is second in line so that half of the
#: requests wait behind it and ``ttft_p50_s`` carries its cost.
LONG_PROMPT = {"full": ((1024, 4608, 512, 2048, 512, 1024), 40),
               "small": ((256, 640, 128, 384), 4)}


def long_prompt_requests(seed: int, size: str) -> List[RequestSpec]:
    lengths, n_out = LONG_PROMPT[size]
    rng = np.random.default_rng([seed, 1])
    return [RequestSpec(i, _tokens(rng, n), n_out)
            for i, n in enumerate(lengths)]


#: sessions, shared prefix tokens (block aligned), output tokens.  Tails
#: cycle through 32..63 tokens so no two neighbours share a tail length.
SHARED_PREFIX = {"full": (16, 2048, 48), "small": (4, 256, 6)}


def shared_prefix_requests(seed: int, size: str) -> List[RequestSpec]:
    sessions, prefix_tokens, n_out = SHARED_PREFIX[size]
    rng = np.random.default_rng([seed, 2])
    prefix = _tokens(rng, prefix_tokens)
    return [RequestSpec(i, np.concatenate(
        [prefix, _tokens(rng, 32 + (i * 13) % 32)]), n_out)
        for i in range(sessions)]


#: requests, blocks per worker, snapshot cadence.
CHAT_BURST = {"full": (120, 64, 16), "small": (12, 64, 16)}
CHAT_SYSTEM_TOKENS = 64


def chat_burst_requests(seed: int, size: str) -> List[RequestSpec]:
    n_requests = CHAT_BURST[size][0]
    rng = np.random.default_rng([seed, 3])
    system = {cls.name: _tokens(rng, CHAT_SYSTEM_TOKENS) for cls in TENANTS}
    specs = []
    for i in range(n_requests):
        tenant = "bronze" if i % 5 == 4 else "gold"
        tail = 16 + (i * 37) % 80           # 16..95 tokens
        n_out = 8 + (i * 11) % 32           # 8..39 tokens
        specs.append(RequestSpec(
            i, np.concatenate([system[tenant], _tokens(rng, tail)]),
            n_out, tenant))
    return specs


#: requests, output tokens, pool blocks, snapshot cadence.
CRASH_RECOVER = {"full": (16, 32, 400, 16), "small": (4, 8, 200, 4)}
CRASH_KINDS = ("kill_after_fsync", "kill_before_fsync", "torn_snapshot",
               "kill_after_fsync")
CRASH_FRACTIONS = (0.2, 0.4, 0.6, 0.8)


def kill_steps(reference_steps: int, snapshot_every: int) -> List[int]:
    """Durable steps after which the worker dies: near 20/40/60/80% of
    the no-crash step count, moved to the middle of a snapshot interval.

    Mid-interval kills replay half an interval each; a kill that lands on
    a snapshot boundary replays a whole interval or none, so one step
    more or fewer in a later commit would swing ``recover_s`` by itself.
    """
    steps = [snapshot_every * int(f * reference_steps / snapshot_every)
             + snapshot_every // 2 for f in CRASH_FRACTIONS]
    if sorted(set(steps)) != steps or steps[-1] >= reference_steps:
        raise ValueError(f"run of {reference_steps} steps is too short for "
                         f"four kills {snapshot_every} steps apart")
    return steps


def crash_recover_requests(seed: int, size: str) -> List[RequestSpec]:
    n_requests, n_out = CRASH_RECOVER[size][:2]
    rng = np.random.default_rng([seed, 4])
    return [RequestSpec(i, _tokens(rng, 256 + (i * 211) % 512), n_out)
            for i in range(n_requests)]


GENERATORS: Dict[str, Callable[[int, str], List[RequestSpec]]] = {
    "long_prompt": long_prompt_requests,
    "shared_prefix_decode": shared_prefix_requests,
    "chat_burst": chat_burst_requests,
    "crash_recover": crash_recover_requests,
}


def requests_digest(specs: Sequence[RequestSpec]) -> str:
    """Content hash of a generated workload (byte-identity of inputs)."""
    h = hashlib.blake2b(digest_size=16)
    for spec in specs:
        h.update(f"{spec.request_id}|{spec.max_new_tokens}|{spec.tenant}|"
                 .encode())
        h.update(np.ascontiguousarray(spec.prompt).tobytes())
    return h.hexdigest()


# -- one pass ----------------------------------------------------------------

@dataclasses.dataclass
class PassResult:
    """What one pass of one workload produced, before any reduction."""

    start: float                       # perf_counter at pass start
    wall_s: float
    #: request id -> perf_counter of every output token, first seen.
    stamps: Dict[int, List[float]]
    #: request id -> output tokens of requests that finished in full.
    outputs: Dict[int, List[int]]
    sent: int
    #: counts that must repeat exactly from pass to pass.
    counts: Dict[str, int]
    pool_blocks: int = 0
    recover_s: float = 0.0
    #: engine/fleet/attention registries of the pass (trace run reads them).
    registries: List[MetricsRegistry] = dataclasses.field(
        default_factory=list)
    durable_dirs: List[pathlib.Path] = dataclasses.field(
        default_factory=list)


def build_model() -> Transformer:
    return Transformer(MODEL_CONFIG, seed=MODEL_SEED)


def new_backend(obs: Optional[Obs] = None) -> LongSightAttention:
    return LongSightAttention(LONGSIGHT, obs=obs)


def _fresh_obs() -> Obs:
    return Obs(MetricsRegistry(enabled=True), Tracer(enabled=False))


def _instantiate(specs: Sequence[RequestSpec], stamps: Dict[int, List[float]]
                 ) -> List[ServeRequest]:
    requests = []
    for spec in specs:
        times = stamps.setdefault(spec.request_id, [])
        requests.append(ServeRequest(
            spec.request_id, spec.prompt, spec.max_new_tokens,
            tenant=spec.tenant, outputs=StampedOutputs((), times)))
    return requests


def _completed(requests: Sequence[ServeRequest]) -> Dict[int, List[int]]:
    """Outputs of requests that finished with every token, unshed."""
    return {r.request_id: [int(t) for t in r.outputs] for r in requests
            if r.state is RequestState.DONE and not r.events.shed
            and not r.events.rejected
            and len(r.outputs) == r.max_new_tokens}


def blocks_for(specs: Sequence[RequestSpec]) -> int:
    """Pool blocks that hold every session of ``specs`` at full length."""
    return sum(-(-(len(s.prompt) + s.max_new_tokens) // BLOCK_TOKENS)
               for s in specs)


def build_engine(model: Transformer, blocks: int, policy: SloPolicy,
                 name: str, obs: Obs) -> ServeEngine:
    """A fresh pool and engine reporting into ``obs`` (one per pass, and
    one per recovery: ``recover()`` restores into a clean engine)."""
    pool = PagedKVPool(model.config, blocks, BLOCK_TOKENS,
                       prefix_caching=True, obs=obs)
    return ServeEngine(model, pool, lambda request: new_backend(obs),
                       policy=policy, timing=VirtualTiming(), name=name,
                       obs=obs)


class EngineWorkload:
    """One ``ServeEngine`` (``long_prompt``, ``shared_prefix_decode``).

    ``blocks``, ``policy`` and ``durable_snapshot_every`` exist for the
    ``wrap.*`` ladder, which replays ``chat_burst`` on a bare engine and on
    a ``DurableRun``, and for ``crash_recover``'s no-crash reference pass.
    """

    #: only ``crash_recover`` has a reference its outputs must equal.
    reference_outputs = None

    def __init__(self, name: str, blocks: Optional[int] = None,
                 policy: Optional[SloPolicy] = None,
                 durable_snapshot_every: Optional[int] = None) -> None:
        self.name = name
        self.blocks = blocks
        self.policy = policy or SloPolicy(max_decode_batch=MAX_DECODE_BATCH)
        self.durable_snapshot_every = durable_snapshot_every

    def run_pass(self, model: Transformer, specs: Sequence[RequestSpec],
                 tmp: pathlib.Path) -> PassResult:
        obs = _fresh_obs()
        engine = build_engine(model, self.blocks or blocks_for(specs) + 8,
                              self.policy, self.name, obs)
        pool = engine.pool
        stamps: Dict[int, List[float]] = {}
        requests = _instantiate(specs, stamps)
        start = time.perf_counter()
        if self.durable_snapshot_every is None:
            report = engine.run(requests)
        else:
            report = DurableRun(
                engine, requests, tmp,
                snapshot_every=self.durable_snapshot_every).serve()
        wall = time.perf_counter() - start
        counts = {
            "steps": int(obs.metrics.counter("serve.steps").value),
            "preemptions": int(report.preemptions),
            "migrations": 0,
            "prefix_hits": int(pool.prefix_hits),
            "pool_high_watermark": int(pool.high_watermark),
            "tokens_replayed": 0,
        }
        return PassResult(start, wall, stamps, _completed(requests),
                          len(requests), counts, pool_blocks=pool.n_blocks,
                          registries=[obs.metrics])


class ChatBurst:
    """``FleetRouter`` over two durable workers."""

    name = "chat_burst"
    reference_outputs = None

    def __init__(self, size: str, n_workers: int = 2,
                 blocks: Optional[int] = None) -> None:
        _, per_worker, self.snapshot_every = CHAT_BURST[size]
        self.blocks = blocks or per_worker
        self.n_workers = n_workers

    def run_pass(self, model: Transformer, specs: Sequence[RequestSpec],
                 tmp: pathlib.Path) -> PassResult:
        attention_obs = _fresh_obs()
        workers = [make_worker(
            i, model, lambda request: new_backend(attention_obs),
            self.blocks, BLOCK_TOKENS, policy=CHAT_POLICY,
            timing_factory=lambda obs: VirtualTiming(), durable_root=tmp)
            for i in range(self.n_workers)]
        router_obs = _fresh_obs()
        router = FleetRouter(workers, obs=router_obs,
                             snapshot_every=self.snapshot_every,
                             health=INERT_HEALTH)
        stamps: Dict[int, List[float]] = {}
        requests = _instantiate(specs, stamps)
        start = time.perf_counter()
        report = router.run(requests)
        wall = time.perf_counter() - start
        counts = {
            "steps": int(report.metrics.counter("serve.steps").value),
            "preemptions": int(report.preemptions),
            "migrations": int(report.migrations),
            "prefix_hits": int(report.prefix_hits),
            "pool_high_watermark": sum(
                w.pool_high_watermark for w in report.workers),
            "tokens_replayed": 0,
        }
        return PassResult(
            start, wall, stamps, _completed(requests), len(requests), counts,
            pool_blocks=self.blocks * self.n_workers,
            registries=[report.metrics, router_obs.metrics,
                        attention_obs.metrics],
            durable_dirs=[w.durable_dir for w in workers])


def live_requests(run: DurableRun) -> List[ServeRequest]:
    """Every request a (recovered) durable run still knows about."""
    scheduler = run.scheduler
    return list(scheduler.finished) + list(scheduler.running) \
        + list(scheduler.queued) + list(run.pending)


class CrashRecover:
    """One ``DurableRun`` killed four times and recovered each time."""

    name = "crash_recover"

    def __init__(self, size: str) -> None:
        _, _, self.blocks, self.snapshot_every = CRASH_RECOVER[size]
        self.policy = SloPolicy(max_decode_batch=MAX_DECODE_BATCH)
        #: the no-crash reference pass: its step count places the kills,
        #: its outputs are what every crashed pass must reproduce.
        self.reference: Optional[PassResult] = None

    @property
    def reference_outputs(self) -> Optional[Dict[int, List[int]]]:
        return None if self.reference is None else self.reference.outputs

    def run_pass(self, model: Transformer, specs: Sequence[RequestSpec],
                 tmp: pathlib.Path) -> PassResult:
        if self.reference is None:      # untimed, before the first pass
            self.reference = EngineWorkload(
                self.name, self.blocks, self.policy).run_pass(
                    model, specs, tmp)
        plans = [CrashPlan(kill_at_step=step, kind=kind)
                 for step, kind in zip(
                     kill_steps(self.reference.counts["steps"],
                                self.snapshot_every), CRASH_KINDS)]
        registries = []

        def engine() -> ServeEngine:
            obs = _fresh_obs()
            registries.append(obs.metrics)
            return build_engine(model, self.blocks, self.policy, self.name,
                                obs)

        stamps: Dict[int, List[float]] = {}
        recover_s = 0.0
        tokens_replayed = 0
        start = time.perf_counter()
        run = DurableRun(engine(), _instantiate(specs, stamps), tmp,
                         snapshot_every=self.snapshot_every,
                         crash=plans.pop(0))
        alive = True
        while alive:
            try:
                alive = run.step()
            except WorkerKilledError:
                died = time.perf_counter()
                run, stats = recover(tmp, engine(),
                                     snapshot_every=self.snapshot_every)
                recover_s += time.perf_counter() - died
                tokens_replayed += stats.tokens_replayed
                for request in live_requests(run):
                    request.outputs = StampedOutputs(
                        request.outputs, stamps[request.request_id])
                run.crash = plans.pop(0) if plans else None
        report = run.finish()
        wall = time.perf_counter() - start
        pool = run.engine.pool
        counts = {
            "steps": int(run.steps),
            "preemptions": int(report.preemptions),
            "migrations": 0,
            "prefix_hits": int(pool.prefix_hits),
            "pool_high_watermark": int(pool.high_watermark),
            "tokens_replayed": int(tokens_replayed),
        }
        return PassResult(start, wall, stamps,
                          _completed(live_requests(run)), len(specs), counts,
                          pool_blocks=self.blocks, recover_s=recover_s,
                          registries=registries, durable_dirs=[tmp])


def make_workload(name: str, size: str):
    if name in ("long_prompt", "shared_prefix_decode"):
        return EngineWorkload(name)
    if name == "chat_burst":
        return ChatBurst(size)
    if name == "crash_recover":
        return CrashRecover(size)
    raise ValueError(f"unknown workload: {name!r} (one of {WORKLOADS})")


def solo_outputs(model: Transformer, spec: RequestSpec) -> List[int]:
    """The tokens single-session ``generate`` gives for one request."""
    return [int(t) for t in generate(model, spec.prompt, spec.max_new_tokens,
                                     backend=new_backend())]
