"""Seeded fault injection for the DReX offload path.

The paper's serving story (Sections 6-9) assumes a healthy device; this
module models what production sparse-attention stacks actually face — DCC
queue overflow, CXL stalls and bandwidth collapse, NMA hangs, sign-store
bit corruption, allocator pressure — so the hybrid algorithm's *graceful
degradation* to the dense sliding-window path can be exercised and
regression-tested instead of assumed.

Everything is deterministic: a declarative :class:`FaultPlan` (per-fault
rates + severity parameters + a seed) drives a :class:`FaultInjector`
whose single seeded RNG stream makes any faulted run bit-reproducible.
A zero-rate plan never draws from the RNG, so the supervised path with
``FaultPlan.none()`` is bit-identical to the unsupervised one.

Real-failure correspondence (see DESIGN.md for the full table):

- ``queue_full`` — the MMIO request FIFO (depth 512) has no slot because
  responses are drained too slowly or a user mix bursts.
- ``response_buffer`` — all 512 response buffers are bound/occupied
  (session churn racing unregistration).
- ``cxl_timeout`` — a lost/stalled CXL response; the GPU's poll never
  completes within its budget.
- ``cxl_degraded`` — link retraining / congestion collapses effective
  bandwidth by ``cxl_degradation_factor``.
- ``nma_stall`` — a near-memory accelerator wedges for ``nma_stall_ns``
  (refresh collision, scheduler livelock); surfaces as a latency spike
  that the supervisor's per-request timeout converts into a retry.
- ``kso_corruption`` — bit flips in a stored Key Sign Object (DRAM
  disturbance); detected by checksum, repaired by repacking signs from
  the intact Key Objects.
- ``capacity_pressure`` — the allocator transiently cannot place a Key
  Block group (fragmentation / competing tenants); staged tokens stay in
  the HBM window until pressure clears.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, Optional

import numpy as np

from repro.drex.device import DrexDevice
from repro.errors import CapacityError, OffloadTimeoutError, QueueFullError

#: Canonical fault kinds (rate attribute is ``<kind>_rate`` on FaultPlan).
FAULT_KINDS = ("queue_full", "response_buffer", "cxl_timeout", "cxl_degraded",
               "nma_stall", "kso_corruption", "capacity_pressure")

#: Crash kinds a :class:`CrashPlan` can inject into a durable run
#: (consumed by :class:`repro.durable.DurableRun` at step boundaries).
CRASH_KINDS = ("kill_after_fsync", "kill_before_fsync", "torn_snapshot",
               "stale_wal")

#: Gray-failure kinds a :class:`GrayFailurePlan` can inject into a fleet
#: worker (read by :class:`repro.fleet.router.FleetRouter`'s guarded
#: step).  Unlike crashes, a gray worker keeps *responding* — just
#: slowly, not at all, or intermittently — which is exactly what a
#: liveness check misses.
GRAY_KINDS = ("slow_worker", "stuck_worker", "flapping_worker")


@dataclasses.dataclass(frozen=True)
class CrashPlan:
    """Deterministic worker-kill schedule for durable serving.

    Unlike the Bernoulli :class:`FaultPlan`, crashes are scheduled at an
    exact engine-step boundary so tests can kill at *every* event boundary
    and assert bit-identical recovery.  The kind decides what the
    simulated death leaves on disk:

    - ``kill_after_fsync``: the WAL is fully synced before the kill — the
      clean case, recovery replays everything.
    - ``kill_before_fsync``: the fsync-batched WAL tail is lost with the
      process; deterministic re-execution regenerates those records.
    - ``torn_snapshot``: the process dies mid-snapshot-write, leaving a
      truncated file whose chain-hash footer cannot verify; recovery must
      fall back to the previous valid snapshot.
    - ``stale_wal``: the on-disk WAL belongs to a different epoch than the
      snapshots (operator error / mixed durable dirs); recovery must
      reject its suffix instead of replaying garbage.
    """

    #: raise :class:`~repro.errors.WorkerKilledError` after executing this
    #: (1-based) durable step.
    kill_at_step: int = 1
    kind: str = "kill_after_fsync"
    #: fraction of the torn snapshot's bytes that survive on disk.
    torn_fraction: float = 0.5

    def __post_init__(self) -> None:
        if self.kill_at_step < 1:
            raise ValueError("kill_at_step must be >= 1")
        if self.kind not in CRASH_KINDS:
            raise ValueError(f"unknown crash kind: {self.kind!r} "
                             f"(one of {CRASH_KINDS})")
        if not 0.0 < self.torn_fraction < 1.0:
            raise ValueError("torn_fraction must be in (0, 1)")


@dataclasses.dataclass(frozen=True)
class GrayFailurePlan:
    """Deterministic gray-failure schedule for one fleet worker.

    Like :class:`CrashPlan`, everything is pinned to exact worker-step
    indices so any faulted fleet run is bit-reproducible.  Stalls are
    *simulated*: the router's bounded-wait guard adds the stall seconds
    to the step latency it observed instead of sleeping, so tests stay
    fast and deterministic while exercising the same detection path.

    - ``slow_worker``: every step from ``start_step`` takes an extra
      ``stall_s`` simulated seconds (degraded host, thermal throttle,
      noisy neighbor).
    - ``stuck_worker``: from ``start_step`` the worker stops making any
      progress — steps return without doing work and report an infinite
      stall (wedged process, deadlocked I/O).
    - ``flapping_worker``: alternates ``period`` faulty steps (stalling
      ``stall_s``) with ``period`` healthy steps (intermittent link,
      GC-pause storms) — the classifier must not flap a worker straight
      to failed on one bad sample.
    """

    kind: str = "slow_worker"
    #: first (1-based) worker step the fault affects.
    start_step: int = 1
    #: simulated extra seconds per faulty step (ignored by stuck_worker,
    #: which always reports an infinite stall).
    stall_s: float = 2.0
    #: flapping half-period in steps (faulty for ``period``, then healthy
    #: for ``period``, repeating).
    period: int = 4
    #: step at which the fault clears for good; ``None`` = never.
    stop_step: Optional[int] = None

    def __post_init__(self) -> None:
        if self.kind not in GRAY_KINDS:
            raise ValueError(f"unknown gray-failure kind: {self.kind!r} "
                             f"(one of {GRAY_KINDS})")
        if self.start_step < 1:
            raise ValueError("start_step must be >= 1")
        if self.stall_s <= 0.0:
            raise ValueError("stall_s must be > 0")
        if self.period < 1:
            raise ValueError("period must be >= 1")
        if self.stop_step is not None and self.stop_step <= self.start_step:
            raise ValueError("stop_step must be > start_step")

    def stall_at(self, step: int) -> float:
        """Simulated stall seconds injected at (1-based) worker ``step``;
        ``inf`` means the step makes no progress at all."""
        if step < self.start_step:
            return 0.0
        if self.stop_step is not None and step >= self.stop_step:
            return 0.0
        if self.kind == "stuck_worker":
            return float("inf")
        if self.kind == "flapping_worker":
            phase = (step - self.start_step) // self.period
            return self.stall_s if phase % 2 == 0 else 0.0
        return self.stall_s


@dataclasses.dataclass(frozen=True)
class FaultPlan:
    """Declarative, seeded description of what to inject and how often.

    Rates are per-injection-point probabilities in ``[0, 1]``: request-path
    faults fire per offload attempt, ``capacity_pressure`` per staged flush.
    """

    queue_full_rate: float = 0.0
    response_buffer_rate: float = 0.0
    cxl_timeout_rate: float = 0.0
    cxl_degraded_rate: float = 0.0
    nma_stall_rate: float = 0.0
    kso_corruption_rate: float = 0.0
    capacity_pressure_rate: float = 0.0
    seed: int = 0

    # -- severity parameters --
    #: latency added to the device-side compute when an NMA stalls.
    nma_stall_ns: float = 20e6
    #: multiplier on the CXL value-read time under link degradation.
    cxl_degradation_factor: float = 8.0
    #: sign bits flipped per corruption event.
    kso_bits_flipped: int = 4

    def __post_init__(self) -> None:
        for kind in FAULT_KINDS:
            rate = getattr(self, f"{kind}_rate")
            if not 0.0 <= rate <= 1.0:
                raise ValueError(f"{kind}_rate must be in [0, 1], got {rate}")
        if self.cxl_degradation_factor < 1.0:
            raise ValueError("cxl_degradation_factor must be >= 1")
        if self.kso_bits_flipped < 1:
            raise ValueError("kso_bits_flipped must be >= 1")

    def rate(self, kind: str) -> float:
        if kind not in FAULT_KINDS:
            raise ValueError(f"unknown fault kind: {kind!r}")
        return getattr(self, f"{kind}_rate")

    @property
    def any_faults(self) -> bool:
        return any(self.rate(kind) > 0 for kind in FAULT_KINDS)

    # -- common plans --

    @classmethod
    def none(cls, seed: int = 0) -> "FaultPlan":
        """Healthy device: nothing fires, the RNG is never consumed."""
        return cls(seed=seed)

    @classmethod
    def uniform(cls, rate: float, seed: int = 0) -> "FaultPlan":
        """Every transient fault kind at the same rate (no corruption —
        mix in ``kso_corruption_rate`` explicitly when wanted)."""
        return cls(queue_full_rate=rate, response_buffer_rate=rate,
                   cxl_timeout_rate=rate, cxl_degraded_rate=rate,
                   nma_stall_rate=rate, seed=seed)

    @classmethod
    def total_failure(cls, seed: int = 0) -> "FaultPlan":
        """The device is gone: every offload times out.  LongSight must
        converge to the dense sliding-window baseline, not crash."""
        return cls(cxl_timeout_rate=1.0, seed=seed)


class FaultInjector:
    """Seeded Bernoulli trigger shared by all injection points.

    One RNG stream + a fixed consultation order per operation makes every
    faulted run reproducible from ``plan.seed`` alone.  Zero-rate kinds
    never draw, so adding injection points does not perturb existing
    sequences for plans that do not use them.
    """

    def __init__(self, plan: FaultPlan) -> None:
        self.plan = plan
        self.rng = np.random.default_rng(plan.seed)
        self.counts: Dict[str, int] = {kind: 0 for kind in FAULT_KINDS}

    def fires(self, kind: str) -> bool:
        rate = self.plan.rate(kind)
        if rate <= 0.0:
            return False
        fired = bool(self.rng.random() < rate)
        if fired:
            self.counts[kind] += 1
        return fired

    @property
    def total_fired(self) -> int:
        return sum(self.counts.values())


class FaultInjectingDevice(DrexDevice):
    """A :class:`DrexDevice` whose request path consults a fault injector.

    Request-path faults fire per :meth:`execute` call in a fixed order
    (queue -> buffers -> corruption -> CXL timeout -> post-completion
    latency faults).  KSO corruption persists in the sign store until
    repaired — exactly like real DRAM disturbance — while the latency
    faults (NMA stall, link degradation) distort only the returned
    :class:`LatencyBreakdown`, never the computed top-k.
    """

    def __init__(self, *args, injector: FaultInjector, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.injector = injector

    def execute(self, request):
        inj = self.injector
        if inj.fires("queue_full"):
            raise QueueFullError(
                "injected: DCC request queue full (depth "
                f"{self.dcc.QUEUE_DEPTH})")
        if inj.fires("response_buffer"):
            raise QueueFullError(
                "injected: all DCC response buffers exhausted")
        if inj.fires("kso_corruption"):
            kv_head = int(inj.rng.integers(self.n_kv_heads))
            self.corrupt_kso(request.uid, request.layer, kv_head, inj.rng,
                             n_bits=inj.plan.kso_bits_flipped)
        if inj.fires("cxl_timeout"):
            raise OffloadTimeoutError(
                "injected: CXL response timed out (stalled link or lost "
                "completion)")
        response = super().execute(request)
        if inj.fires("nma_stall"):
            response.latency.rank_ns += inj.plan.nma_stall_ns
        if inj.fires("cxl_degraded"):
            response.latency.value_read_ns *= inj.plan.cxl_degradation_factor
        return response


def make_faulty_device(model_config, config, rotations=None,
                       plan: Optional[FaultPlan] = None
                       ) -> FaultInjectingDevice:
    """Build a fault-injecting device matching a model/algorithm config
    (same geometry the plain :class:`DrexOffloadBackend` would build)."""
    plan = plan or FaultPlan.none()
    return FaultInjectingDevice(
        n_layers=model_config.n_layers,
        n_kv_heads=model_config.n_kv_heads,
        n_q_heads=model_config.n_q_heads,
        head_dim=model_config.head_dim,
        thresholds=config.thresholds,
        rotations=rotations if config.use_itq else None,
        dtype_bytes=model_config.dtype_bytes,
        injector=FaultInjector(plan),
    )
