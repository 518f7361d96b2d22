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
  decoded* by the miniature model — the analytic
  :class:`~repro.system.serving_sim.ServingSimulator` charges its clock
  through the same adapter, which is what makes cross-validation between
  the two meaningful;
- **measured** (``timing=None``): wall-clock seconds of the numpy compute.

Correctness anchor: with an ample pool, a zero-fault backend, and the
default chunking, every served session's token stream is **bit-identical**
to single-session :func:`repro.llm.sampling.generate` on the same prompt —
chunked prefill splits on the model's prefill block boundaries (the same
block GEMMs), paged reads gather identical values, and decode rows are
batch-invariant by construction: ``decode_step_batch`` stacks the sessions,
every dense product goes through one fixed-tile helper whose per-row result
depends on the row and the weight only, and compatible sessions share one
attention call per layer whose row layout depends on each session's own
context only (``decode_step`` is the one-session case; pinned by
``tests/llm/test_batch_invariance.py`` and
``tests/core/test_decode_rows.py``).
Preemption preserves the token stream too: victims are resumed by
re-prefilling ``prompt + outputs[:-1]`` and replaying the last sampled
token through a real decode step.  That rebuilds K/V with prefill's block
GEMMs instead of decode steps, so it is pinned at the token level by the
preemption / migration / recovery suites, not by a K/V-bits argument.
"""

from __future__ import annotations

import dataclasses
import time
from typing import Callable, List, Optional, Protocol, Sequence

import numpy as np

from repro.core.config import LongSightConfig
from repro.core.hybrid import LongSightAttention
from repro.errors import PoolExhaustedError
from repro.llm.model import Transformer
from repro.obs import Histogram, Obs, resolve_obs
from repro.serve.events import ServeReport
from repro.serve.paged_kv import PagedKVPool
from repro.serve.scheduler import (ContinuousBatchScheduler, RequestState,
                                   ServeRequest, SloPolicy, StepPlan)

#: Decode-batch-size histogram edges: one bucket per batch size up to 256.
_BATCH_EDGES = tuple(float(x) for x in range(1, 257))


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
        system: any serving-simulator system model (``step_latency_s`` over
            heterogeneous contexts; ``step_latency_degraded_s`` used when
            present and any session is degraded).
        model_config: the paper-scale model the latencies are charged for.
        prefill: optional :class:`~repro.system.prefill.PrefillModel`; when
            given, a prefill chunk costs the *incremental* prefill latency
            between its start and end context (``None`` models prefill as
            fully overlapped with decode, like the analytic simulator).
        obs: observability bundle; the modeled seconds of every decode
            step and prefill chunk are attributed into
            ``timing.decode_step_s`` / ``timing.prefill_chunk_s``.
    """

    def __init__(self, system, model_config, prefill=None,
                 obs: Optional[Obs] = None) -> None:
        self.system = system
        self.model_config = model_config
        self.prefill = prefill
        self.obs = resolve_obs(obs)

    def _attribute(self, stage: str, seconds: float) -> None:
        metrics = self.obs.metrics
        if metrics.enabled:
            metrics.counter(f"timing.{stage}s").inc()
            metrics.counter(f"timing.{stage}_total_s").inc(seconds)
            metrics.histogram(f"timing.{stage}_s").observe(seconds)

    def step_histogram(self) -> Histogram:
        """Restart ``timing.decode_step_s`` as a fresh sample-retaining
        instrument for one run's exact step-latency percentiles (the null
        histogram when the registry is disabled)."""
        return self.obs.metrics.new_histogram("timing.decode_step_s",
                                              track_values=True)

    def decode_step_s(self, contexts, degraded=None) -> float:
        if not contexts:
            return 0.0
        degraded_step = getattr(self.system, "step_latency_degraded_s", None)
        if degraded is not None and degraded_step is not None \
                and any(degraded):
            step = degraded_step(self.model_config, list(contexts),
                                 list(degraded))
        else:
            step = self.system.step_latency_s(self.model_config,
                                              list(contexts))
        self._attribute("decode_step", step)
        return step

    def prefill_chunk_s(self, context_before: int, context_after: int) -> float:
        if self.prefill is None or context_after <= context_before:
            return 0.0
        ls = getattr(self.system, "ls", None)
        after = self.prefill.prefill(self.model_config, context_after,
                                     ls=ls).total_s
        if context_before <= 0:
            chunk = after
        else:
            before = self.prefill.prefill(self.model_config, context_before,
                                          ls=ls).total_s
            chunk = max(0.0, after - before)
        self._attribute("prefill_chunk", chunk)
        return chunk


def _config_value(cfg) -> tuple:
    """Hashable value of a backend config dataclass (arrays by bytes)."""
    def value_of(field):
        value = getattr(cfg, field.name)
        if np.ndim(value) == 0:
            return value
        array = np.asarray(value)
        return array.dtype.str, array.shape, array.tobytes()

    return (type(cfg), *map(value_of, dataclasses.fields(cfg)))


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
        prefill_block_size: the model-level prefill block; the policy's
            ``prefill_chunk`` must be a multiple of it so chunked prefill
            reproduces single-shot prefill exactly.
        obs: observability bundle shared with the scheduler.  Metrics
            (queue depth, batch sizes, shed causes, TTFT/TPOT) always
            record when the registry is enabled; spans
            (``serve.run`` > ``engine.step`` > ``prefill_chunk`` /
            ``decode_batch``) record when the bundle's tracer is enabled.
            Instrumentation never changes served tokens.
    """

    def __init__(self, model: Transformer, pool: PagedKVPool,
                 backend_factory, policy: Optional[SloPolicy] = None,
                 timing: Optional[TimingModel] = None,
                 name: str = "serve", prefill_block_size: int = 256,
                 max_steps: int = 1_000_000,
                 obs: Optional[Obs] = None,
                 migrate_handler: Optional[
                     Callable[[ServeRequest], bool]] = None) -> None:
        self.model = model
        self.pool = pool
        self.backend_factory = backend_factory
        self.policy = policy or SloPolicy()
        if self.policy.prefill_chunk % prefill_block_size != 0:
            raise ValueError(
                "prefill_chunk must be a multiple of prefill_block_size so "
                "chunked prefill splits on the model's block boundaries")
        self.timing = timing
        self.name = name
        self.prefill_block_size = prefill_block_size
        self.max_steps = max_steps
        self.obs = resolve_obs(obs)
        #: optional relocation hook ``(request) -> bool``: offered every
        #: session this engine would otherwise preempt-requeue or
        #: capacity-shed; returning ``True`` means the request now lives
        #: elsewhere (a fleet router told the source run it departed,
        #: then re-injected it into another worker).
        self.migrate_handler = migrate_handler
        #: (base config by value, quality level) -> the config served.
        self._level_configs: dict = {}

    # -- session plumbing -----------------------------------------------------

    def _attach(self, request: ServeRequest) -> None:
        """Give an admitted request a pool-backed cache and a backend."""
        request.cache = self.pool.new_cache()
        request.backend = self.backend_factory(request)

    @staticmethod
    def _backend_degraded(backend) -> int:
        """Supervisor degradation counter, 0 for unsupervised backends."""
        return int(getattr(backend, "degraded_tokens", 0) or 0)

    # -- capacity -------------------------------------------------------------

    def _ensure_growth(self, scheduler: ContinuousBatchScheduler,
                       request: ServeRequest, tokens: int) -> bool:
        """Secure pool blocks for ``tokens`` total, preempting if needed.

        Returns False when even preemption cannot make room (the request
        itself must then be shed or deferred).
        """
        while True:
            try:
                request.cache.ensure_tokens(tokens)
                return True
            except PoolExhaustedError:
                if scheduler.preempt_victim(request) is None:
                    return False

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

    def _level_config(self, cfg: LongSightConfig,
                      level: int) -> LongSightConfig:
        """The config served at quality ``level`` of base config ``cfg``.

        The whole ladder: 1 shrinks ``top_k`` by the brownout policy's
        ``top_k_scale``, 2 also raises the thresholds by its
        ``threshold_bump``, 3 is ``top_k = 0`` — the dense floor, sinks +
        window only.  Memoised per (base config's field values, level),
        because the engine builds one backend per request and sessions
        stack into one attention call only when their backends share a
        config *object* — under overload the batch is at its fullest,
        which is exactly when that matters.  Keyed by value, the map is
        bounded by the distinct configurations served, and a factory that
        builds an equal config per request still gets one variant object.
        """
        key = (_config_value(cfg), level)
        if key not in self._level_configs:
            if level >= 3:
                variant = cfg.replace(top_k=0)
            else:
                policy = self.policy.brownout
                variant = cfg.replace(
                    top_k=max(1, int(cfg.top_k * policy.top_k_scale)))
                if level >= 2:
                    bumped = np.asarray(cfg.thresholds) \
                        + policy.threshold_bump
                    variant = variant.replace(
                        thresholds=int(bumped) if bumped.ndim == 0
                        else bumped)
            self._level_configs[key] = variant
        return self._level_configs[key]

    def _served_backend(self, request: ServeRequest, stage: int = 0):
        """The backend that serves ``request`` now, and its quality level.

        A session's quality is one integer: 3 when it is pinned to the
        dense floor (shed from the offload path), else the brownout
        ``stage``; 0 is ``request.backend`` itself, which is never
        replaced — a pinned supervised backend keeps its durable state.
        The level returned is 0 whenever service is actually unchanged (a
        backend without a :class:`LongSightConfig`, or already at
        ``top_k = 0``), so only genuinely degraded tokens are attributed.

        Safe on the live cache: ``top_k`` / ``thresholds`` are query-time
        retrieval knobs (the packed-sign layout is identical across
        variants) and K/V projections are backend-independent, so a
        variant reads the same blocks the full-quality backend wrote.
        """
        backend = request.backend
        level = 3 if request.pinned_dense else stage
        cfg = getattr(backend, "config", None)
        if not level or not isinstance(cfg, LongSightConfig) \
                or not cfg.top_k:
            return backend, 0
        with_config = getattr(backend, "with_config", None)
        if with_config is not None:
            return with_config(self._level_config(cfg, level)), level
        # An offload backend retrieves on its device: only the dense
        # floor — what it degrades a token to — has a software twin.
        if level < 3:
            return backend, 0
        return LongSightAttention(self._level_config(cfg, level),
                                  obs=self.obs), level

    # -- one step -------------------------------------------------------------

    def _execute(self, run: "EngineRun", plan: StepPlan):
        """Run one engine step; returns (seconds, emitters, degradations)."""
        scheduler = run.scheduler
        clock = run.clock
        wall0 = time.perf_counter()
        emitted: List[ServeRequest] = []
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
            chunk = min(self.policy.prefill_chunk,
                        len(target) - request.prefilled)
            if not self._ensure_growth(scheduler, request,
                                       request.prefilled + chunk):
                self._shed_in_flight(run, request)
                continue
            segment = target[request.prefilled: request.prefilled + chunk]
            with tracer.span("prefill_chunk", request=request.request_id,
                             tokens=int(chunk)):
                logits = self.model.prefill(
                    segment, request.cache,
                    backend=self._served_backend(request)[0],
                    block_size=self.prefill_block_size)
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
                # The charge runs *overlapped* with the decode batch
                # (the analytic simulator's model): it delays this
                # session's readiness, not the global clock.
                scale = 1.0
                if request.charged_prompt_tokens is not None \
                        and len(request.prompt):
                    scale = request.charged_prompt_tokens \
                        / len(request.prompt)
                request.prefill_charge_s += self.timing.prefill_chunk_s(
                    int(ctx_before * scale),
                    int(request.prefilled * scale))
            if request.prefilled == len(target):
                scheduler.prefill_complete(request)
                admitted_s = request.events.admitted_s or 0.0
                request.ready_s = max(
                    clock, admitted_s + request.prefill_charge_s)
                if not request.outputs:
                    token = int(np.argmax(logits))
                    request.outputs.append(token)
                    request.pending_token = token
                    emitted.append(request)
                # resumed sessions replay outputs[-1] via a decode step, so
                # the rebuilt trajectory is bit-identical to the original.
                else:
                    request.pending_token = request.outputs[-1]

        # -- decode batch -----------------------------------------------------
        degraded_flags = []
        decodes = [r for r in plan.decodes
                   if r.state is RequestState.DECODE and r.ready_s <= clock]
        ready = []
        for request in decodes:
            if request.state is not RequestState.DECODE:
                continue  # preempted by an earlier prefill's growth
            if self._ensure_growth(scheduler, request,
                                   len(request.cache) + 1):
                ready.append(request)
            else:
                self._shed_in_flight(run, request)
        # A later session's growth may have preempted one already deemed
        # ready; drop anything no longer in DECODE before batching.
        ready = [r for r in ready if r.state is RequestState.DECODE]
        if ready:
            backends, levels = zip(*(
                self._served_backend(request, scheduler.brownout_stage)
                for request in ready))
            before = [self._backend_degraded(b) for b in backends]
            with tracer.span("decode_batch", batch=len(ready)):
                logits_list = self.model.decode_step_batch(
                    [r.pending_token for r in ready],
                    [r.cache for r in ready],
                    backends)
            for request, logits, seen, backend, level in zip(
                    ready, logits_list, before, backends, levels):
                token = int(np.argmax(logits))
                request.outputs.append(token)
                request.pending_token = token
                emitted.append(request)
                now_degraded = self._backend_degraded(backend)
                degraded = request.pinned_dense or now_degraded > seen
                degraded_flags.append((request, degraded))
                if level and not request.pinned_dense:
                    scheduler.note_brownout(request, level)
            if self.timing is not None:
                # Level-3 tokens take the degraded step-latency path,
                # brownout's as a pin's: they were served by exactly the
                # dense floor the fault layer degrades to, which is what
                # buys queue drain under overload.
                analytic_s += self.timing.decode_step_s(
                    [r.charged_context for r in ready],
                    [flag or level >= 3 for (_, flag), level
                     in zip(degraded_flags, levels)])

        step_s = analytic_s if self.timing is not None \
            else time.perf_counter() - wall0
        return step_s, emitted, degraded_flags

    def _shed_in_flight(self, run: "EngineRun",
                        request: ServeRequest) -> None:
        """Capacity shed: not even preemption freed room for this request.

        The session is offered for migration first — detached exactly
        like a preemption victim (blocks freed, state QUEUED, resume via
        re-prefill), so a target worker resumes it bit-identically.  Only
        when no worker will take it does the request actually shed.
        """
        scheduler = run.scheduler
        scheduler.detach(request)
        if run.offer_migration(request):
            return
        metrics = self.obs.metrics
        if metrics.enabled:
            metrics.counter("serve.shed.capacity").inc()
        request.pinned_dense = False
        request.state = RequestState.SHED
        request.events.shed = True
        scheduler.finished.append(request)


class EngineRun:
    """One in-flight serving run, stepped explicitly.

    Extracted loop body of :meth:`ServeEngine.run`: ``step()`` performs
    exactly one iteration of the original loop (arrival submission,
    admission, batch assembly, execution, clock advance, bookkeeping) and
    returns ``False`` when the run is complete.  A fleet router drives
    several runs on interleaved clocks and uses :meth:`inject` to hand a
    migrated session to this worker mid-run; :meth:`note_departure`
    removes a migrated-away session from this run's report so every
    request is reported by exactly one worker.
    """

    def __init__(self, engine: ServeEngine,
                 requests: Sequence[ServeRequest]) -> None:
        self.engine = engine
        self.scheduler = ContinuousBatchScheduler(
            engine.pool, engine.policy, obs=engine.obs,
            victim_sink=self.offer_migration)
        self._arrivals = sorted(requests,
                                key=lambda r: (r.arrival_s, r.request_id))
        self._next_arrival = 0
        self._departed: set = set()          # id(request) of migrated-away
        self.clock = 0.0
        self.tokens_generated = 0
        self.peak_batch = 0
        #: the requests that emitted a token (one each) in the last step.
        self.emitted: List[ServeRequest] = []

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

    def inject(self, request: ServeRequest) -> None:
        """Hand a (migrated) request to this run as a future arrival."""
        self._departed.discard(id(request))
        idx = self._next_arrival
        key = (request.arrival_s, request.request_id)
        while idx < len(self._arrivals) and (
                self._arrivals[idx].arrival_s,
                self._arrivals[idx].request_id) <= key:
            idx += 1
        self._arrivals.insert(idx, request)

    def note_departure(self, request: ServeRequest) -> bool:
        """Mark a request as migrated away (reported by its new worker).

        Returns whether the caller still has to deliver the session to
        its new worker (always, for a run that cannot have delivered it
        in an earlier life).
        """
        self._departed.add(id(request))
        return True

    def offer_migration(self, request: ServeRequest) -> bool:
        """Offer a detached (QUEUED, cache-free) session to the router.

        This is the scheduler's ``victim_sink``.  A handler that answers
        ``True`` has reported the departure (:meth:`note_departure`) and
        handed the session to another worker.
        """
        handler = self.engine.migrate_handler
        return handler is not None and handler(request)

    # -- one loop iteration ---------------------------------------------------

    def step(self) -> bool:
        """One engine-loop iteration; ``False`` when the run is done."""
        engine = self.engine
        scheduler = self.scheduler
        metrics = engine.obs.metrics
        tracer = engine.obs.tracer
        self.emitted = []

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
                return True
            return False

        with tracer.span("engine.step"):
            step_s, emitted, degraded_flags = engine._execute(self, plan)
        self.emitted = emitted
        if metrics.enabled:
            metrics.counter("serve.steps").inc()
            metrics.counter("serve.tokens").inc(len(emitted))
            metrics.histogram("serve.decode_batch",
                              edges=_BATCH_EDGES).observe(len(plan.decodes))
            metrics.gauge("serve.queue_depth").set(len(scheduler.queued))
            metrics.gauge("serve.running_sessions").set(
                len(scheduler.running))
        if step_s == 0.0 and not emitted:
            # Every runnable session is waiting out its overlapped
            # prefill charge; jump the clock to the first readiness.
            waiting = [r.ready_s for r in scheduler.running
                       if r.state is RequestState.DECODE
                       and r.ready_s > self.clock]
            if waiting:
                self.clock = min(waiting)
                return True
        self.clock += step_s
        self.peak_batch = max(self.peak_batch, len(plan.decodes))
        self.tokens_generated += len(emitted)
        for request in emitted:
            stamp = max(self.clock, request.ready_s)
            request.events.token_times_s.append(stamp)
            if request.events.first_token_s is None:
                request.events.first_token_s = stamp
        for request, degraded in degraded_flags:
            scheduler.note_degraded(request, degraded)
        for request in list(plan.decodes):
            if request.state is RequestState.DECODE \
                    and len(request.outputs) >= request.max_new_tokens:
                scheduler.request_finished(request, self.clock)
        return True

    # -- reduction ------------------------------------------------------------

    def serve(self) -> ServeReport:
        """Step to completion and reduce (the solo-run entry point)."""
        for _ in range(self.engine.max_steps):
            if not self.step():
                break
        return self.finish()

    def finish(self) -> ServeReport:
        """Reduce the run's events to a :class:`ServeReport`."""
        engine = self.engine
        metrics = engine.obs.metrics
        # TTFT / TPOT distributions live in the registry; the report reads
        # its percentiles from these run-scoped exact histograms (or falls
        # back to the raw events when the registry is a no-op).
        events = []
        seen: set = set()
        for request in self._arrivals:
            if id(request) in seen or id(request) in self._departed:
                continue
            seen.add(id(request))
            events.append(request.events)
        ttft_hist = metrics.new_histogram("serve.ttft_s", track_values=True)
        tpot_hist = metrics.new_histogram("serve.tpot_s", track_values=True)
        for event in events:
            if event.ttft_s is not None:
                ttft_hist.observe(event.ttft_s)
            if event.tpot_s is not None:
                tpot_hist.observe(event.tpot_s)

        return ServeReport(
            system=engine.name,
            events=events,
            clock_s=self.clock,
            tokens_generated=self.tokens_generated,
            peak_decode_batch=self.peak_batch,
            preemptions=self.scheduler.preemptions,
            pool_blocks=engine.pool.n_blocks,
            pool_high_watermark=engine.pool.high_watermark,
            ttft_hist=ttft_hist if ttft_hist.count else None,
            tpot_hist=tpot_hist if tpot_hist.count else None,
        )
