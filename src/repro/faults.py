"""Seeded fault injection for the DReX offload path.

The paper's serving story (Sections 6-9) assumes a healthy device; this
module models what production sparse-attention stacks actually face — DCC
queue overflow, CXL stalls and bandwidth collapse, NMA hangs, sign-store
bit corruption, allocator pressure — so the hybrid algorithm's *graceful
degradation* to the dense sliding-window path can be exercised and
regression-tested instead of assumed.

Faults are keyed, not drawn in sequence: :func:`fault` decides each
(kind, *site*) of a declarative :class:`FaultPlan` (rates + a seed) as
a pure function — an offload attempt's site is ``(layer, position,
attempt)``, a staged flush's ``(layer, position)`` — so replay,
recompute and recovery get the same answers in any order, and no
generator state is kept.  ``FaultPlan.none()`` is a healthy device.

Real-failure correspondence (see DESIGN.md for the full table):

- ``queue_full`` — the MMIO request FIFO (depth 512) has no slot because
  responses are drained too slowly or a user mix bursts.
- ``response_buffer`` — all 512 response buffers are bound/occupied
  (session churn racing unregistration).
- ``cxl_timeout`` — a lost/stalled CXL response; the GPU's poll never
  completes within its budget.
- ``cxl_degraded`` — link retraining / congestion collapses effective
  bandwidth by ``CXL_DEGRADATION_FACTOR``.
- ``nma_stall`` — a near-memory accelerator wedges for ``NMA_STALL_NS``
  (refresh collision, scheduler livelock); surfaces as a latency spike
  that the supervisor's per-request timeout converts into a retry.
- ``kso_corruption`` — ``KSO_BITS_FLIPPED`` bit flips in a stored Key
  Sign Object (DRAM disturbance); detected by checksum, repaired by
  repacking signs from the intact Key Objects.
- ``capacity_pressure`` — the allocator transiently cannot place a Key
  Block group (fragmentation / competing tenants); staged tokens stay in
  the HBM window until pressure clears.

The module is a leaf, beside :mod:`repro.errors`: its three plans
(:class:`FaultPlan`, :class:`CrashPlan`, :class:`GrayFailurePlan`) serve
``drex``, ``durable`` and ``fleet``, and it imports nothing from
``repro``.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, Optional, Tuple

import numpy as np

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

#: Fault severities: the latency an NMA stall adds to device compute, the
#: multiplier a degraded link puts on the CXL value read, and the sign
#: bits one corruption event flips.
NMA_STALL_NS = 20e6
CXL_DEGRADATION_FACTOR = 8.0
KSO_BITS_FLIPPED = 4

#: Fraction of a torn snapshot's bytes that survive on disk.
TORN_FRACTION = 0.5


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
      file truncated to ``TORN_FRACTION`` of its bytes whose chain-hash
      footer cannot verify; recovery must fall back to the previous valid
      snapshot.
    - ``stale_wal``: the on-disk WAL belongs to a different epoch than the
      snapshots (operator error / mixed durable dirs); recovery must
      reject its suffix instead of replaying garbage.
    """

    #: raise :class:`~repro.errors.WorkerKilledError` after executing this
    #: (1-based) durable step.
    kill_at_step: int = 1
    kind: str = "kill_after_fsync"

    def __post_init__(self) -> None:
        if self.kill_at_step < 1:
            raise ValueError("kill_at_step must be >= 1")
        if self.kind not in CRASH_KINDS:
            raise ValueError(f"unknown crash kind: {self.kind!r} "
                             f"(one of {CRASH_KINDS})")


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

    def stall_at(self, step: int) -> float:
        """Simulated stall seconds injected at (1-based) worker ``step``;
        ``inf`` means the step makes no progress at all."""
        if step < self.start_step:
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
    How hard a fault hits is fixed (``NMA_STALL_NS``,
    ``CXL_DEGRADATION_FACTOR``, ``KSO_BITS_FLIPPED``).
    """

    queue_full_rate: float = 0.0
    response_buffer_rate: float = 0.0
    cxl_timeout_rate: float = 0.0
    cxl_degraded_rate: float = 0.0
    nma_stall_rate: float = 0.0
    kso_corruption_rate: float = 0.0
    capacity_pressure_rate: float = 0.0
    seed: int = 0

    def __post_init__(self) -> None:
        for kind in FAULT_KINDS:
            rate = getattr(self, f"{kind}_rate")
            if not 0.0 <= rate <= 1.0:
                raise ValueError(f"{kind}_rate must be in [0, 1], got {rate}")

    def rate(self, kind: str) -> float:
        if kind not in FAULT_KINDS:
            raise ValueError(f"unknown fault kind: {kind!r}")
        return getattr(self, f"{kind}_rate")

    # -- common plans --

    @classmethod
    def none(cls, seed: int = 0) -> "FaultPlan":
        """Healthy device: nothing fires, no generator is built."""
        return cls(seed=seed)

    @classmethod
    def uniform(cls, rate: float, seed: int = 0) -> "FaultPlan":
        """Every transient fault kind at the same rate (no corruption —
        mix in ``kso_corruption_rate`` explicitly when wanted)."""
        return cls(queue_full_rate=rate, response_buffer_rate=rate,
                   cxl_timeout_rate=rate, cxl_degraded_rate=rate,
                   nma_stall_rate=rate, seed=seed)


_KEYS = FAULT_KINDS + ("backoff",)       # the keys of :func:`site_rng`


def site_rng(plan: FaultPlan, key: str,
             site: Tuple[int, ...]) -> np.random.Generator:
    """The generator of ``key`` (a fault kind, or ``"backoff"`` for the
    supervisor's jitter) at ``site``: a pure function of its arguments."""
    return np.random.default_rng((plan.seed, _KEYS.index(key), *site))


def fault(plan: FaultPlan, kind: str,
          site: Tuple[int, ...]) -> Optional[np.random.Generator]:
    """The one decision of every fault: ``None`` unless ``kind`` fires at
    ``site``, else the site's generator for the fault's own draws (KSO
    corruption's KV head and bits).  A zero-rate kind builds none."""
    rate = plan.rate(kind)
    rng = site_rng(plan, kind, site) if rate > 0.0 else None
    return rng if rng is not None and rng.random() < rate else None


class FaultInjector:
    """A device's plan and the count of faults :func:`fault` fired."""

    def __init__(self, plan: FaultPlan) -> None:
        self.plan = plan
        self.counts: Dict[str, int] = {kind: 0 for kind in FAULT_KINDS}

    def fires(self, kind: str, site: Tuple[int, ...]
              ) -> Optional[np.random.Generator]:
        rng = fault(self.plan, kind, site)
        if rng is not None:
            self.counts[kind] += 1
        return rng

    @property
    def total_fired(self) -> int:
        return sum(self.counts.values())
