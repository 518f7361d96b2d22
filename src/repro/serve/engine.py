"""The continuous-batching functional serving engine.

:class:`ServeEngine` decodes real tokens for many concurrent requests
through one shared :class:`~repro.llm.model.Transformer` and per-session
attention backends, over a shared :class:`~repro.serve.paged_kv.PagedKVPool`.
Each engine step interleaves one chunk of prefill with a decode step for
every running session (continuous batching), exactly as the paper's
serving story pairs sparse attention with request-level scheduling.

Two clocks are supported:

- **analytic** (default for benchmarks): step durations come from the
  ``repro.system`` performance models (:class:`AnalyticTiming`), so TTFT /
  TPOT are meaningful at paper scale while tokens are still *actually
  decoded* by the miniature model.  A timing model with an ``admits``
  capacity rule also gates admission: the scheduler admits a session
  only while the modeled system (one GPU's HBM, or HBM + DReX) holds
  every running session's charged context, which is how the engine
  reproduces the paper's capacity argument (Section 9.1);
- **measured** (``timing=None``): wall-clock seconds of the numpy compute.

Correctness anchor: with an ample pool and a zero-fault backend, every
served session's token stream is **bit-identical** to single-session
:func:`repro.llm.sampling.generate` on the same prompt — a prefill chunk
is one of the model's prefill blocks (the same block GEMMs), paged reads
gather identical values, and decode rows are batch-invariant by
construction: ``decode_step_batch`` stacks the sessions, every dense
product goes through one fixed-tile helper whose per-row result depends
on the row and the weight only, and compatible sessions share one
attention call per layer whose row layout depends on each session's own
context only (``decode_step`` is the one-session case; pinned by
``tests/llm/test_batch_invariance.py`` and
``tests/core/test_decode_rows.py``).
Preemption preserves the token stream too: victims are resumed by
re-prefilling ``prompt + outputs[:-1]`` and replaying the last sampled
token through a real decode step.  That rebuilds K/V with prefill's block
GEMMs instead of decode steps, so it is pinned at the token level by the
preemption / migration / recovery suites, not by a K/V-bits argument.
A migration is the same resume on another worker: a fleet router moves a
session between two runs' steps, never inside one
(:meth:`EngineRun.note_departure`, then :meth:`EngineRun.inject`).

Kept unreached: ``TimingModel.decode_step_s``,
``TimingModel.prefill_chunk_s`` — declared protocol; every timing model
overrides them.
"""

from __future__ import annotations

import time
from typing import List, Optional, Protocol, Sequence

import numpy as np

from repro.core.config import level_config
from repro.core.hybrid import LongSightAttention
from repro.errors import PoolExhaustedError
from repro.llm.model import PREFILL_BLOCK, Transformer
from repro.obs import Obs, resolve_obs
from repro.serve.events import Record, ServeReport
from repro.serve.paged_kv import PagedKVPool
from repro.serve.scheduler import (ContinuousBatchScheduler, RequestState,
                                   ServeRequest, SloPolicy, StepPlan)

class TimingModel(Protocol):
    """Maps one engine step's work to seconds of serving time."""

    def decode_step_s(self, contexts: Sequence[int],
                      degraded: Optional[Sequence[bool]]) -> float:
        ...

    def prefill_chunk_s(self, context_before: int, context_after: int) -> float:
        ...


class AnalyticTiming:
    """Adapter from the ``repro.system`` analytic models to engine steps.

    Args:
        system: a ``repro.system`` model: ``step_latency_s`` over
            heterogeneous contexts and their degraded flags, and
            ``admits`` over charged contexts, the engine's capacity rule.
        model_config: the paper-scale model the latencies are charged for.
        prefill: optional :class:`~repro.system.prefill.PrefillModel`; when
            given, a prefill chunk costs the *incremental* prefill latency
            between its start and end context (``None`` charges prefill
            nothing).
    """

    def __init__(self, system, model_config, prefill=None) -> None:
        self.system = system
        self.model_config = model_config
        self.prefill = prefill

    def admits(self, contexts: Sequence[int]) -> bool:
        """Does the modeled system hold sessions of these charged contexts?"""
        return self.system.admits(self.model_config, contexts)

    def decode_step_s(self, contexts, degraded=None) -> float:
        if not contexts:
            return 0.0
        return self.system.step_latency_s(self.model_config, contexts,
                                          degraded)

    def prefill_chunk_s(self, context_before: int, context_after: int) -> float:
        if self.prefill is None or context_after <= context_before:
            return 0.0
        ls = self.system.ls
        after = self.prefill.prefill(self.model_config, context_after,
                                     ls=ls).total_s
        if context_before <= 0:
            return after
        before = self.prefill.prefill(self.model_config, context_before,
                                      ls=ls).total_s
        return max(0.0, after - before)


class ServeEngine:
    """Continuous-batching serving over one model and one paged KV pool.

    Args:
        model: the shared transformer (weights are read-only).
        pool: the paged KV arena all sessions share.
        backend_factory: callable ``(request) -> attention backend`` giving
            each admitted session its (possibly stateful, e.g. supervised
            offload) backend; called again after a preemption resume.
        policy: scheduling knobs (:class:`SloPolicy`).
        timing: step-time model; ``None`` measures wall-clock numpy time.
        name: label for the report (e.g. the system being modeled).
        obs: observability bundle.  ``serve.steps`` (engine steps that
            ran work) counts when its registry is enabled; spans
            (``serve.run`` > ``engine.step`` > ``prefill_chunk`` /
            ``decode_batch``) record when the bundle's tracer is enabled.
            Instrumentation never changes served tokens.
    """

    def __init__(self, model: Transformer, pool: PagedKVPool,
                 backend_factory, policy: Optional[SloPolicy] = None,
                 timing: Optional[TimingModel] = None,
                 name: str = "serve", max_steps: int = 1_000_000,
                 obs: Optional[Obs] = None) -> None:
        self.model = model
        self.pool = pool
        self.backend_factory = backend_factory
        self.policy = policy or SloPolicy()
        self.timing = timing
        self.name = name
        self.max_steps = max_steps
        self.obs = resolve_obs(obs)

    # -- session plumbing -----------------------------------------------------

    def _attach(self, request: ServeRequest) -> None:
        """Give an admitted request a pool-backed cache and a backend."""
        request.cache = self.pool.new_cache()
        request.backend = self.backend_factory(request)

    # -- capacity -------------------------------------------------------------

    def _ensure_growth(self, run: "EngineRun", request: ServeRequest,
                       tokens: int) -> None:
        """Secure pool blocks for ``tokens`` total, preempting if needed.

        Re-raises the pool's :class:`PoolExhaustedError` once no other
        session is left to preempt — which admission rules out: a session
        is admitted only if its prompt plus full output fits the empty
        pool.
        """
        while True:
            try:
                request.cache.ensure_tokens(tokens)
                return
            except PoolExhaustedError:
                if run.scheduler.preempt_victim(request) is None:
                    raise

    # -- the run loop ---------------------------------------------------------

    def start(self, requests: Sequence[ServeRequest]) -> "EngineRun":
        """Begin a stepwise run over ``requests``.

        The returned :class:`EngineRun` exposes the loop body of
        :meth:`run` one step at a time (``step`` / ``inject`` /
        ``finish``), which is what lets a fleet router interleave many
        workers on one coherent timeline and inject migrated sessions
        mid-run.  :meth:`run` is exactly ``start`` + ``serve``, so solo
        callers see identical behavior.
        """
        return EngineRun(self, requests)

    def run(self, requests: Sequence[ServeRequest]) -> ServeReport:
        """Serve ``requests`` to completion; returns the event report."""
        with self.obs.tracer.span("serve.run", system=self.name,
                                  requests=len(requests)):
            return self.start(requests).serve()

    # -- the quality ladder ---------------------------------------------------

    def _served_backend(self, request: ServeRequest, stage: int = 0):
        """The backend that serves ``request`` now, and its quality level.

        A session's quality is one integer: 3 when it is pinned to the
        dense floor (shed from the offload path), else the brownout
        ``stage``; 0 is ``request.backend`` itself, which is never
        replaced — a pinned supervised backend keeps its durable state.
        Any other level is the backend's ``with_config`` variant at
        :func:`~repro.core.config.level_config` (an offload backend's
        shares its device; at ``top_k = 0`` every variant is the plain
        kernel), built per token: variants of equal configs stack by
        value.  The level returned is 0 whenever service is actually
        unchanged (a backend that is not a :class:`LongSightAttention`, or
        already at ``top_k = 0``), so only genuinely degraded tokens are
        attributed.

        Safe on the live cache: ``top_k`` / ``thresholds`` are query-time
        retrieval knobs (the packed-sign layout is identical across
        variants) and K/V projections are backend-independent, so a
        variant reads the same blocks the full-quality backend wrote.
        """
        backend = request.backend
        level = 3 if request.pinned_dense else stage
        if not level or not isinstance(backend, LongSightAttention) \
                or not backend.config.top_k:
            return backend, 0
        return backend.with_config(
            level_config(backend.config, level)), level

    # -- one step -------------------------------------------------------------

    def _execute(self, run: "EngineRun", plan: StepPlan):
        """Run one engine step; returns its seconds and one ``(request,
        brownout level, degraded)`` per token emitted."""
        scheduler = run.scheduler
        clock = run.clock
        wall0 = time.perf_counter()
        emitted = []
        analytic_s = 0.0
        tracer = self.obs.tracer

        # -- chunked prefill --------------------------------------------------
        for request in list(plan.prefills):
            target = request.resume_tokens
            # First chunk of a fresh (empty) cache: splice in any shared
            # prompt prefix before computing anything.  Capped at
            # target[:-1] so at least the final token always runs through
            # prefill and produces the first-token logits.  Dense-pinned
            # sessions are excluded: their K/V come from a different
            # quality level than the pool's shared blocks.
            if request.prefilled == 0 and request.cache is not None \
                    and len(request.cache) == 0 \
                    and self.pool.prefix_caching \
                    and not request.pinned_dense and len(target) > 1:
                request.prefilled = request.cache.attach_prefix(
                    target[:len(target) - 1])
            chunk = min(PREFILL_BLOCK, len(target) - request.prefilled)
            self._ensure_growth(run, request, request.prefilled + chunk)
            segment = target[request.prefilled: request.prefilled + chunk]
            with tracer.span("prefill_chunk", request=request.request_id,
                             tokens=int(chunk)):
                logits = self.model.prefill(
                    segment, request.cache,
                    backend=self._served_backend(request)[0])
            ctx_before = request.prefilled
            request.prefilled += chunk
            # Publish the freshly written full prompt blocks so later
            # sessions with the same prompt prefix can attach them.
            if self.pool.prefix_caching and not request.pinned_dense:
                prompt_done = min(request.prefilled, len(request.prompt))
                request.cache.publish_prefix(request.prompt[:prompt_done])
            if self.timing is not None:
                # Charge prefill at the request's paper-scale prompt
                # length, scaled to the fraction of prompt processed.
                # The charge runs *overlapped* with the decode batch: it
                # delays this session's readiness, not the global clock.
                request.prefill_charge_s += self.timing.prefill_chunk_s(
                    request.charged_position(ctx_before),
                    request.charged_position(request.prefilled))
            if request.prefilled == len(target):
                scheduler.prefill_complete(request)
                admitted_s = request.events.admitted_s or 0.0
                request.ready_s = max(
                    clock, admitted_s + request.prefill_charge_s)
                if not request.outputs:
                    token = int(np.argmax(logits))
                    request.outputs.append(token)
                    request.pending_token = token
                    emitted.append((request, 0, False))
                    if len(request.outputs) >= request.max_new_tokens:
                        # Its one token is out and its K/V is never read
                        # again: release the blocks now, so no later
                        # session's growth preempts it before it retires
                        # at the end of the step (a resume would replay a
                        # token past its budget).
                        request.cache.free()
                        request.cache = None
                # resumed sessions replay outputs[-1] via a decode step, so
                # the rebuilt trajectory is bit-identical to the original.
                else:
                    request.pending_token = request.outputs[-1]

        # -- decode batch -----------------------------------------------------
        decodes = [r for r in plan.decodes
                   if r.state is RequestState.DECODE and r.ready_s <= clock]
        ready = []
        for request in decodes:
            if request.state is not RequestState.DECODE:
                continue  # preempted by an earlier prefill's growth
            self._ensure_growth(run, request, len(request.cache) + 1)
            ready.append(request)
        # A later session's growth may have preempted one already deemed
        # ready; drop anything no longer in DECODE before batching.
        ready = [r for r in ready if r.state is RequestState.DECODE]
        if ready:
            backends, levels = zip(*(
                self._served_backend(request, scheduler.brownout_stage)
                for request in ready))
            before = [b.degraded_tokens for b in backends]
            with tracer.span("decode_batch", batch=len(ready)):
                logits_list = self.model.decode_step_batch(
                    [r.pending_token for r in ready],
                    [r.cache for r in ready],
                    backends)
            flags = []
            for request, logits, seen, backend, level in zip(
                    ready, logits_list, before, backends, levels):
                token = int(np.argmax(logits))
                request.outputs.append(token)
                request.pending_token = token
                degraded = request.pinned_dense \
                    or backend.degraded_tokens > seen
                flags.append(degraded)
                emitted.append((request, 0 if request.pinned_dense
                                else level, degraded))
            if self.timing is not None:
                # Level-3 tokens take the degraded step-latency path,
                # brownout's as a pin's: they were served by exactly the
                # dense floor the fault layer degrades to, which is what
                # buys queue drain under overload.
                analytic_s += self.timing.decode_step_s(
                    [r.charged_context for r in ready],
                    [flag or level >= 3 for flag, level in zip(flags, levels)])

        step_s = analytic_s if self.timing is not None \
            else time.perf_counter() - wall0
        return step_s, emitted


class EngineRun:
    """One in-flight serving run, stepped explicitly.

    Extracted loop body of :meth:`ServeEngine.run`: ``step()`` performs
    exactly one iteration of the original loop (arrival submission,
    admission, batch assembly, execution, clock advance, bookkeeping) and
    returns ``False`` when the run is complete.  A fleet router drives
    several runs on interleaved clocks and, between their steps, uses
    :meth:`inject` to hand a migrated session to this worker and
    :meth:`note_departure` to take one away, so every request is reported
    by exactly one worker.  Its facts go to the scheduler's record
    ``log``; ``records`` holds what the last call wrote: a step's bucket,
    or an input's one record.
    """

    def __init__(self, engine: ServeEngine,
                 requests: Sequence[ServeRequest]) -> None:
        self.engine = engine
        self.scheduler = ContinuousBatchScheduler(
            engine.pool, engine.policy,
            admits=getattr(engine.timing, "admits", None))
        self._arrivals = sorted(requests,
                                key=lambda r: (r.arrival_s, r.request_id))
        self._next_arrival = 0
        self._departed: set = set()          # id(request) of migrated-away
        self.log = self.scheduler.log
        self.clock = 0.0
        self.steps = 0
        self.peak_batch = 0
        #: the records of the last step or input, in emission order.
        self.records: List[Record] = []

    @property
    def tokens_generated(self) -> int:
        return self.log.counts.get("token", 0)

    # -- router-facing surface ------------------------------------------------

    @property
    def idle(self) -> bool:
        """No pending arrivals and nothing queued or running.

        Future arrivals already departed (drained off by a failover) do
        not count — a fully drained run is idle even though its arrival
        cursor never swept past them.
        """
        return not self.pending and self.scheduler.all_done

    @property
    def next_arrival_s(self) -> Optional[float]:
        """Arrival time of the next not-yet-submitted request."""
        if self._next_arrival < len(self._arrivals):
            return self._arrivals[self._next_arrival].arrival_s
        return None

    @property
    def pending(self) -> List[ServeRequest]:
        """Arrived-but-unsubmitted requests (router load estimation)."""
        return [r for r in self._arrivals[self._next_arrival:]
                if id(r) not in self._departed]

    @property
    def served(self) -> List[ServeRequest]:
        """The requests this run reports, in arrival order: each arrival
        once, the migrated-away ones excluded."""
        return [r for r in self._arrivals if id(r) not in self._departed]

    def inject(self, request: ServeRequest) -> None:
        """Hand a (migrated) request to this run as a future arrival.

        A session migrating back to a run it left replaces its departed
        entry, so each request is held (and snapshotted) once.
        """
        self.log.emit("inject", request)
        for idx, held in enumerate(self._arrivals):
            if held.request_id == request.request_id:
                del self._arrivals[idx]
                self._departed.discard(id(held))
                self._next_arrival -= idx < self._next_arrival
                break
        idx = self._next_arrival
        key = (request.arrival_s, request.request_id)
        while idx < len(self._arrivals) and (
                self._arrivals[idx].arrival_s,
                self._arrivals[idx].request_id) <= key:
            idx += 1
        self._arrivals.insert(idx, request)
        self.records = self.log.drain()

    def note_departure(self, request: ServeRequest) -> None:
        """Release a request migrating away (reported by its new worker):
        withdrawn from the scheduler wherever it is, marked departed.
        Called between steps, like :meth:`inject`."""
        self.scheduler.withdraw(request)
        self.log.emit("depart", request)
        self._departed.add(id(request))
        self.records = self.log.drain()

    # -- one loop iteration ---------------------------------------------------

    def step(self) -> bool:
        """One engine-loop iteration; ``False`` when the run is done."""
        self.steps += 1
        alive, batch = self._iterate()
        self.log.emit("step", step=self.steps, clock=self.clock, batch=batch)
        if batch is not None:
            self.engine.obs.metrics.counter("serve.steps").inc()
        self.records = self.log.drain()
        return alive

    def _iterate(self):
        """The body of :meth:`step`; returns ``(alive, decode batch)``, the
        batch ``None`` when no work ran."""
        engine = self.engine
        scheduler = self.scheduler
        tracer = engine.obs.tracer

        while self._next_arrival < len(self._arrivals) \
                and self._arrivals[self._next_arrival].arrival_s \
                <= self.clock:
            request = self._arrivals[self._next_arrival]
            if id(request) not in self._departed:
                scheduler.submit(request)
            self._next_arrival += 1
        scheduler.update_brownout(self.clock)
        for request in scheduler.admit(self.clock):
            engine._attach(request)
        plan = scheduler.assemble()
        if plan.empty:
            pending = self.next_arrival_s
            if pending is not None:
                self.clock = max(self.clock, pending)
                return True, None
            return False, None

        with tracer.span("engine.step"):
            step_s, emitted = engine._execute(self, plan)
        batch = len(plan.decodes)
        if step_s == 0.0 and not emitted:
            # Every runnable session is waiting out its overlapped
            # prefill charge; jump the clock to the first readiness.
            waiting = [r.ready_s for r in scheduler.running
                       if r.state is RequestState.DECODE
                       and r.ready_s > self.clock]
            if waiting:
                self.clock = min(waiting)
                return True, batch
        self.clock += step_s
        self.peak_batch = max(self.peak_batch, batch)
        for request, level, degraded in emitted:
            scheduler.note_token(request, max(self.clock, request.ready_s),
                                 level, degraded)
        # A one-token request finishes on the prefill step that emitted it.
        for request, _, _ in emitted:
            if request.state is RequestState.DECODE \
                    and len(request.outputs) >= request.max_new_tokens:
                scheduler.request_finished(
                    request, max(self.clock, request.ready_s))
        return True, batch

    # -- reduction ------------------------------------------------------------

    def serve(self) -> ServeReport:
        """Step to completion and reduce (the solo-run entry point).

        Raises ``RuntimeError`` rather than return a truncated report
        when ``engine.max_steps`` runs out with requests still live.
        """
        for _ in range(self.engine.max_steps):
            if not self.step():
                break
        if not self.idle:
            live = len(self.pending) + len(self.scheduler.queued) \
                + len(self.scheduler.running)
            raise RuntimeError(
                f"{self.engine.name}: {live} requests still live after "
                f"max_steps={self.engine.max_steps}")
        return self.finish()

    def finish(self) -> ServeReport:
        """Reduce the run's events to a :class:`ServeReport`."""
        engine = self.engine
        return ServeReport(
            system=engine.name,
            events=[request.events for request in self.served],
            clock_s=self.clock,
            tokens_generated=self.tokens_generated,
            peak_decode_batch=self.peak_batch,
            preemptions=self.log.counts.get("preempt", 0),
            pool_blocks=engine.pool.n_blocks,
            pool_high_watermark=engine.pool.high_watermark,
        )
