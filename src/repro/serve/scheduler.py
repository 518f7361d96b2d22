"""Continuous-batching scheduler: request lifecycle and SLO-aware policy.

Requests move through the lifecycle

    QUEUED -> PREFILL -> DECODE -> DONE
        \\-> SHED (admission SLO blown / impossible fit)   [no tokens]
    DECODE -> SHED-in-place (degradation budget exhausted) [full output]

The scheduler owns the *decisions* — admission against pool capacity and
the TTFT SLO, per-step batch assembly (chunked prefill interleaved with
decode), and preemption victim selection — while the engine owns the
*mechanics* (running the model, advancing the clock).  Each decision is
written once, as a record on the scheduler's :class:`~repro.serve.events.
RecordLog` (``admit``, ``reject``, ``preempt``, ``brownout``, ``pin``,
``token``, ``finish``); the request events and counters are folds of it.
Keeping the two apart makes the policy unit-testable without a model.

Preemption follows the recompute discipline: a victim's blocks are
released and the request re-enters the queue remembering its generated
tokens; on re-admission the engine re-prefills prompt + generated[:-1]
and resumes decoding from the last sampled token.  The rebuilt cache comes
from prefill's block GEMMs rather than decode steps, so what is guaranteed
(and pinned by the preemption suites) is the resumed token stream.

A session leaves for another worker only between steps:
:meth:`ContinuousBatchScheduler.withdraw` takes it out wherever it is,
and a capacity migration's victim is one that preemption requeued first.
"""

from __future__ import annotations

import dataclasses
import enum
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.serve.events import RecordLog, RequestEvents
from repro.serve.paged_kv import PagedKVPool


class RequestState(enum.Enum):
    QUEUED = "queued"
    PREFILL = "prefill"
    DECODE = "decode"
    DONE = "done"
    SHED = "shed"


@dataclasses.dataclass(frozen=True)
class TenantClass:
    """Per-tenant SLO class: its admission weight.

    Attributes:
        name: tenant identifier requests carry in ``ServeRequest.tenant``.
        weight: weighted-round-robin admission share — each admission
            advances the tenant's virtual time by ``1/weight``, so a
            weight-4 tenant is offered four admissions for every one of a
            weight-1 tenant when both are backlogged.
    """

    name: str
    weight: int = 1

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("tenant class needs a name")
        if self.weight < 1:
            raise ValueError("tenant weight must be >= 1")


#: Human-readable names of the brownout ladder stages, by stage index.
BROWNOUT_STAGES = ("normal", "shrink_topk", "raise_threshold",
                   "dense_pin", "shed")

#: Brownout de-escalation hysteresis: a stage is left once both signals
#: sit at or below this fraction of its entry point.
EXIT_FRACTION = 0.5
#: Sessions that advance one prefill chunk per engine step.
MAX_PREFILLS_PER_STEP = 1
#: Consecutive offload-degraded tokens that pin a session to the dense
#: floor for the rest of its life.
SHED_AFTER_DEGRADED = 4


@dataclasses.dataclass(frozen=True)
class BrownoutPolicy:
    """Overload brownout ladder: staged degradation before shedding.

    Under overload the scheduler climbs a ladder of progressively
    cheaper service instead of dropping requests outright — the
    SparseAccelerate observation (sparsity level is a runtime resource
    knob) applied to serving.  The policy decides *when* to climb; the
    rungs are fixed (:func:`repro.core.config.level_config`):

    - stage 1 (``shrink_topk``): decode with ``top_k`` scaled by
      ``TOP_K_SCALE`` — fewer sparse keys retrieved per head;
    - stage 2 (``raise_threshold``): additionally raise the SCF
      sign-agreement threshold by ``THRESHOLD_BUMP`` — a stricter filter
      passes fewer keys to score at all;
    - stage 3 (``dense_pin``): decode on the dense sliding-window
      fallback for the step (the supervisor's degradation target);
    - stage 4 (``shed``): on top of stage 3, shed the *youngest* queued
      requests beyond ``shed_to_depth`` — load has outrun even the
      cheapest service.

    Stages 1-3 are per-step, per-token effects: the KV cache layout is
    query-independent (``top_k`` and ``thresholds`` are retrieval-time
    knobs and K/V projections are backend-independent), so a variant
    backend can serve a token from the same cache and the session
    returns to full quality the moment the ladder steps down.  Entry is
    driven by queue depth (``queue_high``) and head-of-queue wait
    against the TTFT budget (``budget_fractions`` of ``ttft_budget_s``);
    exit requires both signals at or below ``EXIT_FRACTION`` of the
    current stage's entry point (hysteresis), one stage per scheduler
    pass.  While any stage is active, admissions are paced to
    ``admit_per_step`` per scheduler pass (admission-rate control).
    """

    #: queue depths entering stages 1..4.
    queue_high: Tuple[int, int, int, int] = (6, 10, 14, 18)
    #: head-of-queue TTFT budget; ``None`` disables the wait signal.
    ttft_budget_s: Optional[float] = None
    #: fractions of ``ttft_budget_s`` entering stages 1..4.
    budget_fractions: Tuple[float, float, float, float] = \
        (0.25, 0.5, 0.75, 1.0)
    #: admissions per scheduler pass while browned out (>= 1).
    admit_per_step: int = 1
    #: stage-4 shed target depth; ``None`` uses ``queue_high[-1]``.
    shed_to_depth: Optional[int] = None

    def __post_init__(self) -> None:
        if len(self.queue_high) != 4 or len(self.budget_fractions) != 4:
            raise ValueError("queue_high and budget_fractions must give "
                             "entry points for all four stages")
        if any(b <= a for a, b in zip(self.queue_high,
                                      self.queue_high[1:])):
            raise ValueError("queue_high must be strictly increasing")
        if any(b <= a for a, b in zip(self.budget_fractions,
                                      self.budget_fractions[1:])):
            raise ValueError("budget_fractions must be strictly increasing")
        if self.queue_high[0] < 1:
            raise ValueError("queue_high entries must be >= 1")
        if self.budget_fractions[0] <= 0.0:
            raise ValueError("budget_fractions must be > 0")
        if self.ttft_budget_s is not None and self.ttft_budget_s <= 0:
            raise ValueError("ttft_budget_s must be > 0")
        if self.admit_per_step < 1:
            raise ValueError("admit_per_step must be >= 1")
        if self.shed_to_depth is not None and self.shed_to_depth < 1:
            raise ValueError("shed_to_depth must be >= 1")


@dataclasses.dataclass(frozen=True)
class SloPolicy:
    """Scheduling knobs, all expressed against serving objectives.

    A prefill chunk is the model's prefill block
    (:data:`~repro.llm.model.PREFILL_BLOCK` tokens), so chunked prefill
    reproduces single-shot prefill bit-for-bit; ``MAX_PREFILLS_PER_STEP``
    sessions advance one chunk per engine step; and a DECODE session
    whose offload degrades ``SHED_AFTER_DEGRADED`` consecutive tokens is
    pinned to the dense sliding-window fallback for the rest of its life
    (shed from the sparse path, never from service).

    Attributes:
        max_decode_batch: decode sessions stepped together per engine step.
        queue_timeout_s: shed a QUEUED request once its queueing delay
            alone exceeds this (its TTFT SLO is already unattainable);
            ``None`` disables shedding at admission.
        tenant_classes: declared per-tenant SLO classes (admission
            weight).  Tenants without a declared class get weight 1; an
            empty tuple (the default) makes every request one implicit
            tenant, which degenerates to the original FIFO admission
            order exactly.
    """

    max_decode_batch: int = 16
    queue_timeout_s: Optional[float] = None
    tenant_classes: Tuple[TenantClass, ...] = ()
    #: overload brownout ladder; ``None`` (the default) disables it and
    #: keeps scheduling bit-identical to the pre-brownout policy.
    brownout: Optional[BrownoutPolicy] = None

    def tenant_class(self, name: str) -> Optional[TenantClass]:
        for cls in self.tenant_classes:
            if cls.name == name:
                return cls
        return None

    def tenant_weight(self, name: str) -> int:
        cls = self.tenant_class(name)
        return cls.weight if cls is not None else 1

    def __post_init__(self) -> None:
        if self.max_decode_batch < 1:
            raise ValueError("max_decode_batch must be >= 1")
        names = [cls.name for cls in self.tenant_classes]
        if len(names) != len(set(names)):
            raise ValueError("tenant class names must be unique")


@dataclasses.dataclass
class ServeRequest:
    """One user request plus its scheduling state."""

    request_id: int
    prompt: np.ndarray
    max_new_tokens: int
    arrival_s: float = 0.0
    #: SLO class the request is admitted under (weighted round-robin).
    tenant: str = "default"
    #: session-affinity key for fleet routing; ``None`` routes by load
    #: and prefix locality alone.
    session: Optional[str] = None
    state: RequestState = RequestState.QUEUED
    #: sampled output tokens (the last one may not be in the cache yet).
    outputs: List[int] = dataclasses.field(default_factory=list)
    #: prompt positions already prefilled into the cache.
    prefilled: int = 0
    #: last sampled token, not yet fed through a decode step.
    pending_token: Optional[int] = None
    #: consecutive offload-degraded tokens (resets on a healthy one).
    consecutive_degraded: int = 0
    #: pinned to the dense sliding-window fallback (shed-in-place).
    pinned_dense: bool = False
    #: prompt length the *timing model* charges for (paper-scale), letting
    #: a laptop-scale functional prompt stand in for a long-context one;
    #: ``None`` charges the actual prompt length.
    charged_prompt_tokens: Optional[int] = None
    #: analytic prefill seconds accrued so far (overlapped with decode).
    prefill_charge_s: float = 0.0
    #: engine clock at which decode may begin (charged prefill complete;
    #: prefill overlaps the running batch).
    ready_s: float = 0.0
    events: RequestEvents = None  # filled in __post_init__
    # engine-owned handles (cache/backend), opaque to the scheduler
    cache: object = None
    backend: object = None

    def __post_init__(self) -> None:
        self.prompt = np.asarray(self.prompt)
        if self.max_new_tokens < 1:
            raise ValueError("max_new_tokens must be >= 1")
        if self.events is None:
            self.events = RequestEvents(request_id=self.request_id,
                                        arrival_s=self.arrival_s,
                                        tenant=self.tenant)

    @property
    def charged_context(self) -> int:
        """Context length as seen by the analytic timing model."""
        base = self.charged_prompt_tokens if self.charged_prompt_tokens \
            is not None else len(self.prompt)
        return base + len(self.outputs)

    def charged_position(self, position: int) -> int:
        """Position ``position`` of :attr:`resume_tokens` as seen by the
        analytic timing model: prompt positions scaled to the charged
        prompt, generated ones one to one (as in :attr:`charged_context`).
        """
        n_prompt = len(self.prompt)
        if self.charged_prompt_tokens is None or not n_prompt:
            return position
        scale = self.charged_prompt_tokens / n_prompt
        return int(min(position, n_prompt) * scale) \
            + max(0, position - n_prompt)

    @property
    def resume_tokens(self) -> np.ndarray:
        """Tokens to re-prefill on (re-)admission.

        Fresh requests: the whole prompt.  Preempted requests: prompt plus
        every generated token except the pending one, which is replayed
        through a real decode step so the resumed trajectory stays
        bit-identical to an uninterrupted run.
        """
        if not self.outputs:
            return self.prompt
        return np.concatenate(
            [self.prompt, np.asarray(self.outputs[:-1], dtype=np.int64)])


@dataclasses.dataclass
class StepPlan:
    """What the engine should execute this step."""

    prefills: List[ServeRequest]   # advance each by <= PREFILL_BLOCK tokens
    decodes: List[ServeRequest]    # one decode token each

    @property
    def empty(self) -> bool:
        return not self.prefills and not self.decodes


class ContinuousBatchScheduler:
    """Admission, batch assembly, and preemption over one paged pool.

    Admission runs **weighted round-robin over per-tenant FIFO queues**
    (stride scheduling): each tenant carries a virtual time that advances
    by ``1/weight`` per admission, and the backlogged tenant with the
    smallest virtual time is offered the next admission slot.  With one
    tenant (or no declared classes) this is exactly the original FIFO-by-
    arrival order; with several, one tenant's burst cannot starve
    another's admissions — the burster's virtual time races ahead and the
    steady tenant is served at its weighted share.
    """

    def __init__(self, pool: PagedKVPool,
                 policy: Optional[SloPolicy] = None,
                 admits: Optional[Callable[[List[int]], bool]] = None
                 ) -> None:
        self.pool = pool
        self.policy = policy or SloPolicy()
        #: per-tenant FIFO queues (arrival order, id tie-break).
        self._queues: Dict[str, List[ServeRequest]] = {}
        #: stride-scheduling virtual time per tenant.
        self._vtime: Dict[str, float] = {}
        self.running: List[ServeRequest] = []   # PREFILL or DECODE
        self.finished: List[ServeRequest] = []
        #: current brownout ladder stage (0 = normal service).
        self.brownout_stage = 0
        #: optional capacity rule over charged contexts (the modeled
        #: system's HBM / DReX budget); ``None`` admits on pool blocks only.
        self.admits = admits
        #: the run's record stream (the engine run writes to it too).
        self.log = RecordLog()

    # -- submission -----------------------------------------------------------

    @property
    def queued(self) -> List[ServeRequest]:
        """All queued requests in arrival order (id tie-break)."""
        merged = [r for q in self._queues.values() for r in q]
        merged.sort(key=lambda r: (r.arrival_s, r.request_id))
        return merged

    def submit(self, request: ServeRequest) -> None:
        """Enqueue an arrived request (FIFO by arrival within tenant)."""
        queue = self._queues.setdefault(request.tenant, [])
        if not queue:
            # (Re)activating tenant: clamp its virtual time up to the
            # slowest active tenant so accumulated idle credit cannot buy
            # a monopolizing burst (standard stride-scheduler join rule).
            active = [self._vtime[t] for t, q in self._queues.items()
                      if q and t != request.tenant]
            floor = min(active) if active else 0.0
            self._vtime[request.tenant] = max(
                self._vtime.get(request.tenant, 0.0), floor)
        queue.append(request)
        queue.sort(key=lambda r: (r.arrival_s, r.request_id))

    @property
    def all_done(self) -> bool:
        return not any(self._queues.values()) and not self.running

    # -- admission ------------------------------------------------------------

    def _session_blocks(self, request: ServeRequest) -> int:
        """Worst-case block demand of a request (prompt + full output)."""
        return self.pool.blocks_for_tokens(
            len(request.prompt) + request.max_new_tokens)

    def _prompt_blocks(self, request: ServeRequest) -> int:
        """Blocks the prefill phase will claim (what admission must fit)."""
        return self.pool.blocks_for_tokens(len(request.resume_tokens))

    def _reserved_blocks(self) -> int:
        """Prompt blocks promised to running prefills but not yet claimed.

        Block allocation is lazy (the engine grows caches chunk by chunk),
        so admission must count what admitted-but-unclaimed prefills will
        take, or one free-list snapshot would over-admit.
        """
        reserved = 0
        for request in self.running:
            if request.state is RequestState.PREFILL:
                held = 0 if request.cache is None \
                    else request.cache.n_blocks
                reserved += max(0, self._prompt_blocks(request) - held)
        return reserved

    def could_fit(self, request: ServeRequest) -> bool:
        """Could ``request``'s whole session (prompt plus full output) fit
        here alone — in the empty pool and, with an ``admits`` rule, in
        the modeled system?  :meth:`admit` and the fleet router's choice
        of a target worker both ask this and :meth:`fits_now`."""
        return self._session_blocks(request) <= self.pool.n_blocks and (
            self.admits is None or self.admits(
                [request.charged_context - len(request.outputs)
                 + request.max_new_tokens]))

    def fits_now(self, request: ServeRequest, reserved: int = 0) -> bool:
        """Does ``request`` fit right now: its resume prompt's blocks in
        the free list net of ``reserved`` and, with an ``admits`` rule,
        its charged context beside every running session's?"""
        return self._prompt_blocks(request) + reserved <= self.pool.n_free \
            and (self.admits is None or self.admits(
                [r.charged_context for r in self.running]
                + [request.charged_context]))

    def admit(self, now: float) -> List[ServeRequest]:
        """Admit queue-head requests while capacity and SLO allow.

        Admission is *optimistic*, vLLM-style: a request is admitted when
        its **prompt** fits the free list (net of blocks promised to other
        running prefills) — decode growth is not reserved up front, and a
        later shortfall is preemption's job.  A request whose queueing
        delay already exceeds ``queue_timeout_s`` is shed (rejected)
        instead of admitted — serving it would blow its TTFT SLO *and*
        steal capacity from requests that can still meet theirs.  A
        request that cannot fit even into an empty pool is shed
        immediately (it could otherwise clog the queue head forever).

        With an ``admits`` capacity rule the head must also fit the
        modeled system: it waits while the running sessions' charged
        contexts plus its own do not fit, and is shed as an impossible fit
        when its final charged context (prompt plus full output) does not
        fit on its own.

        With several backlogged tenants the admission slots rotate by
        stride scheduling (see class docstring); a tenant whose head does
        not fit is *skipped* for this call rather than blocking the other
        tenants' heads behind it.
        """
        policy = self.policy
        admitted = []
        reserved = self._reserved_blocks()
        blocked: set = set()
        # Brownout admission-rate control: while any ladder stage is
        # active, pace admissions so the running batch drains ahead of
        # fresh load (sheds and timeouts above still process normally).
        admit_cap = None
        if policy.brownout is not None and self.brownout_stage >= 1:
            admit_cap = policy.brownout.admit_per_step
        while True:
            if admit_cap is not None and len(admitted) >= admit_cap:
                break
            active = [t for t, q in self._queues.items()
                      if q and t not in blocked]
            if not active:
                break
            tenant = min(active, key=lambda t: (
                self._vtime[t], self._queues[t][0].arrival_s,
                self._queues[t][0].request_id))
            queue = self._queues[tenant]
            head = queue[0]
            if policy.queue_timeout_s is not None \
                    and now - head.arrival_s > policy.queue_timeout_s:
                queue.pop(0)
                self._reject(head, "queue_timeout")
                continue
            if not self.could_fit(head):
                queue.pop(0)
                self._reject(head, "impossible_fit")
                continue
            if not self.fits_now(head, reserved):
                blocked.add(tenant)
                continue
            reserved += self._prompt_blocks(head)
            queue.pop(0)
            self._vtime[tenant] += 1.0 / policy.tenant_weight(tenant)
            head.state = RequestState.PREFILL
            head.prefilled = 0
            self.log.emit("admit", head, t=now)
            self.running.append(head)
            admitted.append(head)
        return admitted

    def _reject(self, request: ServeRequest, cause: str) -> None:
        request.state = RequestState.SHED
        self.log.emit("reject", request, cause=cause)
        self.finished.append(request)

    # -- overload brownout ----------------------------------------------------

    def update_brownout(self, now: float) -> int:
        """Re-evaluate the brownout ladder stage; returns the new stage.

        Escalation is immediate to whatever stage the queue-depth and
        head-of-queue-wait signals demand; de-escalation is one stage per
        pass and only when both signals sit at or below ``EXIT_FRACTION``
        of the current stage's entry point (hysteresis, so the ladder does
        not chatter around a threshold).  At stage 4 the youngest queued
        requests beyond the shed depth are rejected — by then stages 1-3
        have already cheapened service as far as it goes.
        """
        policy = self.policy.brownout
        if policy is None:
            return 0
        queued = self.queued
        depth = len(queued)
        wait = (now - queued[0].arrival_s) if queued else 0.0
        target = 0
        for i, high in enumerate(policy.queue_high):
            if depth >= high:
                target = i + 1
        if policy.ttft_budget_s is not None:
            for i, fraction in enumerate(policy.budget_fractions):
                if wait >= fraction * policy.ttft_budget_s:
                    target = max(target, i + 1)
        stage = self.brownout_stage
        if target > stage:
            stage = target
        elif target < stage:
            depth_exit = EXIT_FRACTION * policy.queue_high[stage - 1]
            wait_exit = None if policy.ttft_budget_s is None else (
                EXIT_FRACTION * policy.budget_fractions[stage - 1]
                * policy.ttft_budget_s)
            if depth <= depth_exit \
                    and (wait_exit is None or wait <= wait_exit):
                stage -= 1
        if stage != self.brownout_stage:
            self.brownout_stage = stage
            self.log.emit("brownout", stage=stage)
        if stage >= 4:
            cap = policy.shed_to_depth if policy.shed_to_depth is not None \
                else policy.queue_high[-1]
            excess = len(queued) - cap
            for victim in queued[len(queued) - excess:] if excess > 0 \
                    else ():
                self._queues[victim.tenant].remove(victim)
                self._reject(victim, "brownout")
        return stage

    # -- detach and withdraw (preemption, relocation) -------------------------

    def detach(self, request: ServeRequest) -> None:
        """Detach a running session: blocks freed, state QUEUED, generated
        tokens kept — what preemption (which adds its accounting and the
        requeue) and :meth:`withdraw` share."""
        self.running.remove(request)
        if request.cache is not None:
            request.cache.free()
            request.cache = None
        request.backend = None
        request.state = RequestState.QUEUED
        request.prefilled = 0
        request.prefill_charge_s = 0.0
        request.ready_s = 0.0

    def withdraw(self, request: ServeRequest) -> None:
        """Take ``request`` out of this scheduler for relocation: detached
        if it is running, dequeued if it is queued (a request that was
        never submitted is in neither)."""
        if any(r is request for r in self.running):
            self.detach(request)
        elif request.tenant in self._queues:
            queue = self._queues[request.tenant]
            queue[:] = [r for r in queue if r is not request]

    # -- step assembly --------------------------------------------------------

    def assemble(self) -> StepPlan:
        """Pick this step's prefill chunk(s) and decode batch.

        Decode-first continuous batching: every DECODE session (up to
        ``max_decode_batch``, oldest admitted first) generates one token
        this step; up to ``MAX_PREFILLS_PER_STEP`` PREFILL sessions
        advance one chunk alongside, so prompt streaming never stalls the
        token clock of running sessions.
        """
        decodes = [r for r in self.running
                   if r.state is RequestState.DECODE]
        if len(decodes) > self.policy.max_decode_batch:
            decodes = self._fair_truncate(decodes,
                                          self.policy.max_decode_batch)
        prefills = [r for r in self.running
                    if r.state is RequestState.PREFILL]
        prefills = prefills[:MAX_PREFILLS_PER_STEP]
        return StepPlan(prefills=prefills, decodes=decodes)

    def _fair_truncate(self, decodes: List[ServeRequest],
                       cap: int) -> List[ServeRequest]:
        """Tenant-fair decode truncation when the batch cap binds.

        Round-robin over tenants (in admission order), each round taking
        up to ``weight`` sessions per tenant, so an over-cap step still
        decodes every tenant at its weighted share instead of whichever
        tenant happened to admit first.  Single-tenant batches keep the
        original oldest-admitted-first order exactly.
        """
        by_tenant: Dict[str, List[ServeRequest]] = {}
        for request in decodes:
            by_tenant.setdefault(request.tenant, []).append(request)
        if len(by_tenant) == 1:
            return decodes[:cap]
        picked: List[ServeRequest] = []
        while len(picked) < cap:
            progressed = False
            for tenant, queue in by_tenant.items():
                take = min(self.policy.tenant_weight(tenant), len(queue),
                           cap - len(picked))
                if take > 0:
                    picked.extend(queue[:take])
                    del queue[:take]
                    progressed = True
                if len(picked) >= cap:
                    break
            if not progressed:
                break
        return picked

    # -- transitions (driven by the engine) -----------------------------------

    def prefill_complete(self, request: ServeRequest) -> None:
        request.state = RequestState.DECODE

    def request_finished(self, request: ServeRequest, now: float) -> None:
        """Completion: release blocks, record timestamps, retire."""
        request.state = RequestState.SHED if request.pinned_dense \
            else RequestState.DONE
        self.log.emit("finish", request, t=now, shed=request.pinned_dense)
        if request.cache is not None:
            request.cache.free()
            request.cache = None
        request.backend = None
        self.running.remove(request)
        self.finished.append(request)

    def note_token(self, request: ServeRequest, now: float, level: int = 0,
                   degraded: bool = False) -> None:
        """Record the token ``request`` just emitted — its brownout stage
        ``level`` (0 when pinned: a pinned token is ``degraded``) and its
        offload health — and pin after the degradation budget is spent.

        A pinned session *falls to the dense window without stalling the
        batch*: it stays in DECODE (tokens keep flowing every step) but is
        excluded from the sparse/offload path by the engine's timing and
        backend handling, and retires as SHED.
        """
        self.log.emit("token", request, index=len(request.outputs) - 1,
                      token=request.outputs[-1], level=level,
                      degraded=degraded, t=now)
        if degraded:
            request.consecutive_degraded += 1
            if not request.pinned_dense and request.consecutive_degraded \
                    >= SHED_AFTER_DEGRADED:
                request.pinned_dense = True
                self.log.emit("pin", request)
        else:
            request.consecutive_degraded = 0

    # -- preemption -----------------------------------------------------------

    def preempt_victim(self, needy: ServeRequest) -> Optional[ServeRequest]:
        """Pick and preempt a session so ``needy`` can grow.

        Victim: the *youngest admitted* running session other than
        ``needy`` (LIFO preemption preserves the FIFO fairness of the
        queue: the request that joined last loses its slot first) whose
        output budget is not spent — a spent one holds no blocks and
        only awaits retirement.  The
        victim's blocks return to the pool and it re-enters the queue
        head-of-line for its original arrival order.  Returns the victim,
        or ``None`` when ``needy`` is the only running session (the caller
        must then shed or wait).  A fleet router may move the requeued
        victim to another worker once the step is over.
        """
        candidates = [r for r in self.running if r is not needy
                      and len(r.outputs) < r.max_new_tokens]
        if not candidates:
            return None
        victim = max(candidates,
                     key=lambda r: (r.events.admitted_s, r.request_id))
        self.detach(victim)
        self.log.emit("preempt", victim)
        self.submit(victim)
        return victim
