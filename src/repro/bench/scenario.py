"""One scenario driver for the serving benchmarks and their tests.

A :class:`Scenario` is plain data: a seeded :class:`Trace` of tenants, a
:class:`Topology` (one engine, a durable run, or a fleet) and a fault
schedule (:class:`Faults`).  :func:`run` builds that world and serves the
trace through it — a killed durable run is recovered and continued here,
once for every caller — returning each request's tokens, the report and
the run's records; :func:`solo_outputs` is the reference they are held
to, single-session :func:`repro.llm.sampling.generate` per request.

Kept unreached: ``solo_outputs`` — reference oracle of the scenario tests.
"""

from __future__ import annotations

import dataclasses
import functools
import pathlib
import tempfile
from typing import Dict, List, Mapping, Optional, Tuple, Union

import numpy as np

from repro.core.config import LongSightConfig
from repro.durable import DurableRun, RecoveryStats, recover
from repro.errors import WorkerKilledError
from repro.faults import CrashPlan, FaultPlan, GrayFailurePlan
from repro.fleet import FleetReport, FleetRouter, HealthPolicy, make_worker
from repro.llm.config import LLAMA3_8B, ModelConfig
from repro.llm.model import Transformer
from repro.llm.sampling import generate
from repro.obs import MetricsRegistry, Obs, Tracer
from repro.serve.engine import AnalyticTiming, EngineRun, ServeEngine
from repro.serve.events import Record, ServeReport
from repro.serve.paged_kv import PagedKVPool
from repro.serve.scheduler import BrownoutPolicy, ServeRequest, SloPolicy
from repro.serve.workload import backend_factory, default_systems
from repro.system.prefill import PrefillModel

#: Tiny functional model: real tokens at laptop scale.
TINY_MODEL = ModelConfig(name="serve-tiny", vocab_size=64, n_layers=2,
                         n_q_heads=4, n_kv_heads=2, head_dim=8, d_ff=32,
                         qk_bias=True)
#: Tiny algorithm config sized to the tiny contexts actually decoded.
TINY_LS = LongSightConfig(window=8, n_sink=4, top_k=12, thresholds=3)
#: The paper-scale model every step is charged for.
CHARGED_MODEL = LLAMA3_8B
BLOCK_TOKENS = 16
#: The multiplicative length rule's spread: prompts of ``1 ± JITTER``.
JITTER = 0.25


# -- the trace ----------------------------------------------------------------

@dataclasses.dataclass(frozen=True)
class Tenant:
    """One tenant's requests, drawn from its own seeded stream in this
    order per request: the arrival (Poisson at ``rate``, else groups of
    ``group`` every ``gap_s`` seconds — all at 0 by default), the length
    (``extra`` adds ``integers(0, extra)`` tokens, else ``random()``
    scales by ``1 ± JITTER``), the prompt ids.  ``prefix_tokens`` of a
    shared prefix from the trace's prefix stream open every prompt.  The
    charge is ``charged`` times the length scale, or the actual length."""

    n: int
    prompt_tokens: int
    output_tokens: int
    seed: int = 0
    rate: Optional[float] = None
    group: int = 1
    gap_s: float = 0.0
    extra: int = 0
    charged: Optional[int] = None
    prefix_tokens: int = 0
    name: str = "default"
    id_offset: int = 0

    def requests(self, prefix: Optional[np.ndarray]) -> List[ServeRequest]:
        rng = np.random.default_rng(self.seed)
        out = []
        t = 0.0
        for i in range(self.n):
            if self.rate is not None:
                t += rng.exponential(1.0 / self.rate)
            else:
                t = (i // self.group) * self.gap_s
            if self.extra:
                scale = 1.0
                length = self.prompt_tokens + int(rng.integers(0, self.extra))
            else:
                scale = 1.0 + JITTER * (2 * rng.random() - 1)
                length = int(self.prompt_tokens * scale)
            prompt = rng.integers(0, TINY_MODEL.vocab_size,
                                  size=max(1, length))
            if prefix is not None:
                prompt = np.concatenate([prefix, prompt])
            charged = len(prompt) if self.charged is None \
                else max(1, int(self.charged * scale))
            out.append(ServeRequest(
                request_id=self.id_offset + i, prompt=prompt,
                max_new_tokens=self.output_tokens, arrival_s=t,
                tenant=self.name, charged_prompt_tokens=charged))
        return out


@dataclasses.dataclass(frozen=True)
class Trace:
    """Tenants' requests; prefixes drawn in tenant order from one stream."""

    tenants: Tuple[Tenant, ...] = ()
    prefix_seed: int = 0

    def requests(self) -> List[ServeRequest]:
        """Fresh request objects, tenant by tenant."""
        prefix_rng = np.random.default_rng(self.prefix_seed)
        out: List[ServeRequest] = []
        for tenant in self.tenants:
            prefix = None if not tenant.prefix_tokens else prefix_rng.integers(
                0, TINY_MODEL.vocab_size, size=tenant.prefix_tokens)
            out += tenant.requests(prefix)
        return out


# -- the topology and the fault schedule --------------------------------------

@dataclasses.dataclass(frozen=True)
class Topology:
    """One engine; a :class:`DurableRun` with ``snapshot_every``; or, with
    ``workers``, a fleet (``n_blocks`` and a prefix cache per worker,
    durable with ``snapshot_every``).  ``system`` (of ``default_systems``)
    charges the clock and admits; ``backend`` decodes each session."""

    system: str = "longsight"
    backend: str = "longsight"
    policy: SloPolicy = SloPolicy()
    n_blocks: int = 64
    prefix_caching: bool = False
    charge_prefill: bool = True
    snapshot_every: Optional[int] = None
    workers: int = 0
    health: Optional[HealthPolicy] = None


@dataclasses.dataclass(frozen=True)
class Faults:
    """The ``offload`` backend's plan, per-worker crash and gray plans (an
    engine is worker 0), and the brownout ladder."""

    offload: Optional[FaultPlan] = None
    crashes: Mapping[int, CrashPlan] = dataclasses.field(default_factory=dict)
    gray: Mapping[int, GrayFailurePlan] = dataclasses.field(
        default_factory=dict)
    brownout: Optional[BrownoutPolicy] = None


@dataclasses.dataclass(frozen=True)
class Scenario:
    trace: Trace = Trace()
    topology: Topology = Topology()
    faults: Faults = Faults()
    model_seed: int = 0


@dataclasses.dataclass
class Outcome:
    """What :func:`run` returns.  ``records``: an engine run's step
    records (a recovered run's history once), or a fleet's stream (the
    router's records and every worker's, tagged).  ``deaths``: the steps
    an engine's crash plan killed it at.  ``world``: the finished run or
    router."""

    outputs: Dict[int, List[int]]
    report: Union[ServeReport, FleetReport]
    records: List[Record]
    recoveries: List[RecoveryStats]
    deaths: List[int]
    world: Union[EngineRun, FleetRouter]


# -- building the world -------------------------------------------------------

@functools.lru_cache(maxsize=None)
def tiny_model(seed: int) -> Transformer:
    """The seeded tiny model (read-only, so one per seed is shared)."""
    return Transformer(TINY_MODEL, seed=seed)


def _private_obs() -> Obs:
    return Obs(MetricsRegistry(enabled=True), Tracer(enabled=False))


def _timing(scenario: Scenario) -> AnalyticTiming:
    topology = scenario.topology
    return AnalyticTiming(
        default_systems()[topology.system], CHARGED_MODEL,
        prefill=PrefillModel() if topology.charge_prefill else None)


def _policy(scenario: Scenario) -> SloPolicy:
    brownout = scenario.faults.brownout
    policy = scenario.topology.policy
    return policy if brownout is None \
        else dataclasses.replace(policy, brownout=brownout)


def _backends(scenario: Scenario):
    return backend_factory(scenario.topology.backend, TINY_LS,
                           TINY_MODEL, scenario.faults.offload)


def build_engine(scenario: Scenario,
                 obs: Optional[Obs] = None) -> ServeEngine:
    """A fresh engine of the scenario (its own registry unless ``obs``)."""
    topology = scenario.topology
    obs = obs or _private_obs()
    pool = PagedKVPool(TINY_MODEL, topology.n_blocks, BLOCK_TOKENS,
                       prefix_caching=topology.prefix_caching, obs=obs)
    return ServeEngine(tiny_model(scenario.model_seed), pool,
                       _backends(scenario),
                       policy=_policy(scenario),
                       timing=_timing(scenario), name=topology.system,
                       obs=obs)


def build_fleet(scenario: Scenario,
                directory: Optional[pathlib.Path] = None) -> FleetRouter:
    """A fresh fleet, durable under ``directory`` if it snapshots."""
    topology, faults = scenario.topology, scenario.faults
    durable_root = directory if topology.snapshot_every else None
    workers = [
        make_worker(wid, tiny_model(scenario.model_seed), _backends(scenario),
                    n_blocks=topology.n_blocks, block_tokens=BLOCK_TOKENS,
                    policy=_policy(scenario),
                    timing_factory=lambda obs: _timing(scenario),
                    durable_root=durable_root)
        for wid in range(topology.workers)]
    return FleetRouter(workers, obs=_private_obs(),
                       snapshot_every=topology.snapshot_every or 8,
                       crash_plans=faults.crashes, gray_plans=faults.gray,
                       health=topology.health)


def served_outputs(world: Union[EngineRun, FleetRouter]
                   ) -> Dict[int, List[int]]:
    """request id -> tokens, from the run that reported each request (a
    recovered run's rebuilt ones; a migrant's last worker)."""
    runs = [w.run for w in world.workers] \
        if isinstance(world, FleetRouter) else [world]
    return {r.request_id: [int(t) for t in r.outputs]
            for run in runs for r in run.served}


# -- running it ---------------------------------------------------------------

def run(scenario: Scenario, obs: Optional[Obs] = None) -> Outcome:
    """Serve the trace; a durable world lives in a temporary directory."""
    requests = scenario.trace.requests()
    with tempfile.TemporaryDirectory(prefix="scenario-") as tmp:
        if not scenario.topology.workers:
            return _run_engine(scenario, requests, pathlib.Path(tmp), obs)
        router = build_fleet(scenario, pathlib.Path(tmp))
        router.start(requests)
        records: List[Record] = []
        while router.step():
            records += router.records
        report = router.finish()
    return Outcome(served_outputs(router), report, records,
                   list(router.recoveries), [], router)


def _run_engine(scenario: Scenario, requests: List[ServeRequest],
                directory: pathlib.Path, obs: Optional[Obs]) -> Outcome:
    snapshot_every = scenario.topology.snapshot_every
    engine = build_engine(scenario, obs)
    if snapshot_every:
        run_ = DurableRun(engine, requests, directory,
                          snapshot_every=snapshot_every,
                          crash=scenario.faults.crashes.get(0))
    else:
        run_ = engine.start(requests)
    records: List[Record] = []
    recoveries: List[RecoveryStats] = []
    deaths: List[int] = []
    with engine.obs.tracer.span("serve.run", system=engine.name,
                                requests=len(requests)):
        for _ in range(engine.max_steps):
            try:
                alive = run_.step()
            except WorkerKilledError as death:
                deaths.append(death.step)
                records += run_.records
                run_, stats = recover(directory,
                                      build_engine(scenario, obs),
                                      snapshot_every=snapshot_every)
                recoveries.append(stats)
                records = _through_step(records, run_.steps)
                continue
            records += run_.records
            if not alive:
                break
        else:
            raise RuntimeError(f"{engine.name}: still live after "
                               f"max_steps={engine.max_steps}")
        report = run_.finish()
    return Outcome(served_outputs(run_), report, records, recoveries,
                   deaths, run_)


def _through_step(records: List[Record], step: int) -> List[Record]:
    """``records`` up to and including step ``step``'s bucket."""
    ends = [i for i, r in enumerate(records)
            if r.kind == "step" and r.data["step"] == step]
    return records[:ends[0] + 1] if ends else []


def solo_outputs(scenario: Scenario) -> Dict[int, List[int]]:
    """request id -> single-session ``generate`` on a fresh backend."""
    model = tiny_model(scenario.model_seed)
    make_backend = _backends(scenario)
    return {r.request_id: [int(t) for t in generate(
                model, r.prompt, r.max_new_tokens, backend=make_backend(r))]
            for r in scenario.trace.requests()}
