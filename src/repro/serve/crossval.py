"""Cross-validation between the functional engine and the analytic simulator.

The repo has two serving stories that must agree:

- the **analytic** :class:`~repro.system.serving_sim.ServingSimulator`,
  which never touches tokens — it integrates the paper's latency models
  over an arrival trace;
- the **functional** :class:`~repro.serve.engine.ServeEngine`, which
  actually decodes every token through a miniature transformer while its
  clock advances by the *same* analytic step latencies.

Both layers run :class:`ServeRequest`s through one
:class:`AnalyticTiming` and return a :class:`ServeReport`.  This module
runs one seeded trace — identical arrival times, identical charged
(paper-scale) prompt lengths — through both for each system under
comparison, so tests can assert that the functional engine reproduces the
simulator's throughput *ordering* (LongSight above the full-dense GPU
baseline at long context, the gap closing as context shrinks toward the
crossover).
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.core.config import LongSightConfig
from repro.core.hybrid import LongSightAttention
from repro.llm.config import ModelConfig
from repro.llm.model import DenseBackend, Transformer
from repro.serve.engine import AnalyticTiming, ServeEngine
from repro.serve.events import ServeReport
from repro.serve.paged_kv import PagedKVPool
from repro.serve.scheduler import ServeRequest, SloPolicy
from repro.system.baselines import DenseGpuSystem, SlidingWindowGpuSystem
from repro.system.engine import LongSightSystem
from repro.system.serving_sim import ServingSimulator

#: The three systems every serve benchmark compares.
SYSTEM_NAMES = ("longsight", "dense", "sliding_window")


def default_systems(window: int = 1024, n_sink: int = 16) -> Dict[str, object]:
    """Paper-scale analytic system models, keyed by serve-bench name."""
    ls = LongSightConfig(window=window, n_sink=n_sink, top_k=1024,
                         use_itq=True)
    return {
        "longsight": LongSightSystem(ls),
        "dense": DenseGpuSystem(),
        "sliding_window": SlidingWindowGpuSystem(window=window,
                                                 n_sink=n_sink),
    }


def backend_factory(name: str, tiny_ls: LongSightConfig):
    """Per-session functional backend maker for system ``name``.

    A fresh backend per session keeps per-cache state (threshold caches,
    sign-rotation expectations) from leaking across sessions.
    """
    if name == "longsight":
        return lambda request: LongSightAttention(tiny_ls)
    if name == "dense":
        return lambda request: DenseBackend()
    if name == "sliding_window":
        # The hybrid at top_k = 0; one config object for every session,
        # so their decode rows stack.
        sliding = tiny_ls.replace(top_k=0)
        return lambda request: LongSightAttention(sliding)
    raise ValueError(f"unknown system: {name!r}")


def poisson_workload(n_requests: int, arrival_rate_per_s: float,
                     prompt_tokens: int, output_tokens: int,
                     vocab_size: Optional[int] = None,
                     charged_prompt_tokens: Optional[int] = None,
                     seed: int = 0, prompt_jitter: float = 0.25,
                     ) -> List[ServeRequest]:
    """A seeded Poisson arrival trace with jittered prompt lengths.

    Every request is charged a jittered paper-scale prompt
    (``charged_prompt_tokens``, or ``prompt_tokens`` when that is
    ``None``).  With a ``vocab_size`` it also carries ~``prompt_tokens``
    real prompt ids for the functional engine to decode; without one it is
    token-free (an empty prompt), which is all the analytic simulator
    reads.  The ids are drawn from the arrival stream, so the two kinds of
    trace differ in their arrivals: a cross-validation builds the id trace
    for both layers.
    """
    rng = np.random.default_rng(seed)
    t = 0.0
    requests = []
    for i in range(n_requests):
        t += rng.exponential(1.0 / arrival_rate_per_s)
        jitter = 1.0 + prompt_jitter * (2 * rng.random() - 1)
        actual = max(1, int(prompt_tokens * jitter))
        charged = actual if charged_prompt_tokens is None \
            else max(1, int(charged_prompt_tokens * jitter))
        prompt = np.zeros(0, dtype=np.int64) if vocab_size is None \
            else rng.integers(0, vocab_size, size=actual)
        requests.append(ServeRequest(
            request_id=i, prompt=prompt, max_new_tokens=output_tokens,
            arrival_s=t, charged_prompt_tokens=charged))
    return requests


@dataclasses.dataclass
class CrossValReport:
    """Functional and analytic outcomes of one trace."""

    functional: Dict[str, ServeReport]
    analytic: Dict[str, ServeReport]

    @staticmethod
    def _ranking(reports: Dict[str, ServeReport]) -> List[str]:
        return sorted(reports,
                      key=lambda n: (-reports[n].throughput_tps, n))

    @property
    def functional_ranking(self) -> List[str]:
        return self._ranking(self.functional)

    @property
    def analytic_ranking(self) -> List[str]:
        return self._ranking(self.analytic)

    @property
    def orderings_agree(self) -> bool:
        """Both layers rank the systems' throughput identically."""
        return self.functional_ranking == self.analytic_ranking

    def speedup(self, name: str, over: str, layer: str = "functional"
                ) -> float:
        """Throughput ratio ``name / over`` in the chosen layer."""
        reports = self.functional if layer == "functional" else self.analytic
        denom = reports[over].throughput_tps
        return reports[name].throughput_tps / denom if denom else float("inf")


def cross_validate(model: Transformer,
                   paper_config: ModelConfig,
                   tiny_ls: LongSightConfig,
                   n_requests: int = 6,
                   arrival_rate_per_s: float = 200.0,
                   prompt_tokens: int = 32,
                   charged_prompt_tokens: int = 32_768,
                   output_tokens: int = 8,
                   systems: Sequence[str] = SYSTEM_NAMES,
                   pool_blocks: int = 256,
                   block_tokens: int = 16,
                   policy: Optional[SloPolicy] = None,
                   seed: int = 0) -> CrossValReport:
    """Run one trace through both layers for each system.

    The functional side decodes real tokens with ``model`` (laptop scale)
    while charging latency for ``paper_config`` at
    ``charged_prompt_tokens`` context; the analytic side simulates the
    identical trace.  Each system gets a fresh pool and fresh requests so
    runs cannot contaminate one another.

    The default arrival rate *saturates* the decode loop (requests land
    faster than steps retire them), so throughput reflects per-step
    latency rather than arrival spacing — an idle system would measure
    the trace, not the serving system.
    """
    analytic_systems = default_systems()
    functional: Dict[str, ServeReport] = {}
    analytic: Dict[str, ServeReport] = {}

    def trace() -> List[ServeRequest]:
        return poisson_workload(
            n_requests, arrival_rate_per_s, prompt_tokens, output_tokens,
            model.config.vocab_size, charged_prompt_tokens, seed=seed)

    for name in systems:
        timing = AnalyticTiming(analytic_systems[name], paper_config)
        pool = PagedKVPool(model.config, n_blocks=pool_blocks,
                           block_tokens=block_tokens)
        engine = ServeEngine(
            model, pool, backend_factory(name, tiny_ls), policy=policy,
            timing=timing, name=name)
        functional[name] = engine.run(trace())
        analytic[name] = ServingSimulator(timing, max_steps=50_000) \
            .run(trace())
    return CrossValReport(functional=functional, analytic=analytic)
