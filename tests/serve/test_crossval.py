"""Serving orderings: the engine must rank the systems the way the paper's
analytic models do.

Every system serves one seeded trace — identical arrival times, identical
charged (paper-scale) prompt lengths — with real tokens decoded and its
clock charged through :class:`AnalyticTiming`.  LongSight out-throughputs
the quality-equal dense baseline at long context, the gap closes toward
the crossover as context shrinks, and the engine's throughput ratios track
the systems' per-step latency ratios.
"""

import numpy as np
import pytest

from repro.core.config import LongSightConfig
from repro.llm.config import LLAMA3_8B
from repro.llm.model import Transformer
from repro.serve.engine import AnalyticTiming, ServeEngine
from repro.serve.paged_kv import PagedKVPool
from repro.serve.scheduler import ServeRequest
from repro.serve.workload import (SYSTEM_NAMES, backend_factory,
                                  default_systems, poisson_workload)
from repro.system.prefill import PrefillModel
from tests.conftest import TINY

LS = LongSightConfig(window=8, n_sink=4, top_k=12, thresholds=3)
N_REQUESTS = 5
#: Charged context of the long-context trace, and of the short one.
LONG_CONTEXT = 32_768
SHORT_CONTEXT = 8_192


@pytest.fixture(scope="module")
def model():
    return Transformer(TINY, seed=0)


def _trace(charged):
    # The default arrival rate *saturates* the decode loop (requests land
    # faster than steps retire them), so throughput reflects per-step
    # latency rather than arrival spacing.
    return poisson_workload(N_REQUESTS, 200.0, 24, 10, TINY.vocab_size,
                            charged_prompt_tokens=charged, seed=0)


def _serve_all(model, charged):
    """Throughput of every system on one trace at ``charged`` context."""
    systems = default_systems()
    throughput = {}
    for name in SYSTEM_NAMES:
        engine = ServeEngine(
            model, PagedKVPool(TINY, n_blocks=128, block_tokens=16),
            backend_factory(name, LS),
            timing=AnalyticTiming(systems[name], LLAMA3_8B), name=name)
        throughput[name] = engine.run(_trace(charged)).throughput_tps
    return throughput


def _ranking(throughput):
    return sorted(throughput, key=lambda n: (-throughput[n], n))


def _step_latency(name, charged):
    """One decode step of the whole trace at its charged context."""
    return default_systems()[name].step_latency_s(
        LLAMA3_8B, [charged] * N_REQUESTS)


@pytest.fixture(scope="module")
def long_context(model):
    return _serve_all(model, LONG_CONTEXT)


class TestOrderingAgreement:
    def test_rankings_match_at_long_context(self, long_context):
        by_step = sorted(SYSTEM_NAMES,
                         key=lambda n: (_step_latency(n, LONG_CONTEXT), n))
        assert _ranking(long_context) == by_step

    def test_longsight_beats_dense_at_long_context(self, long_context):
        assert long_context["longsight"] / long_context["dense"] > 1.2

    def test_sliding_window_is_the_floor(self, long_context):
        """The quality-sacrificing baseline is fastest by construction —
        LongSight approaches it, never beats it."""
        assert _ranking(long_context)[0] == "sliding_window"

    def test_functional_tracks_analytic_magnitude(self, long_context):
        """Beyond ordering: the served LongSight/dense ratio should be
        within ~25% of the per-step latency ratio on the same trace."""
        served = long_context["longsight"] / long_context["dense"]
        analytic = _step_latency("dense", LONG_CONTEXT) \
            / _step_latency("longsight", LONG_CONTEXT)
        assert served == pytest.approx(analytic, rel=0.25)


class TestCrossoverDirection:
    def test_gap_shrinks_at_short_context(self, model, long_context):
        short = _serve_all(model, SHORT_CONTEXT)
        gap_short = short["longsight"] / short["dense"]
        gap_long = long_context["longsight"] / long_context["dense"]
        assert gap_short < gap_long  # crossover direction
        # the per-step latency models show the same direction
        assert _step_latency("dense", SHORT_CONTEXT) \
            / _step_latency("longsight", SHORT_CONTEXT) \
            < _step_latency("dense", LONG_CONTEXT) \
            / _step_latency("longsight", LONG_CONTEXT)


class TestPairedWorkload:
    def test_analytic_layer_ignores_prompt_ids(self, model):
        """The analytic clock reads arrival, charged prompt length and
        output budget only: two traces that differ only in their prompt
        ids give equal reports."""
        first = poisson_workload(
            n_requests=7, arrival_rate_per_s=3.0, prompt_tokens=20,
            output_tokens=5, vocab_size=TINY.vocab_size,
            charged_prompt_tokens=32_768, seed=1)
        second = [ServeRequest(
            request_id=r.request_id,
            prompt=(r.prompt + 1) % TINY.vocab_size,
            max_new_tokens=r.max_new_tokens, arrival_s=r.arrival_s,
            charged_prompt_tokens=r.charged_prompt_tokens)
            for r in first]
        # functional prompts are laptop scale, charged paper scale
        assert all(0 < len(r.prompt) < r.charged_prompt_tokens
                   for r in first)
        reports = [ServeEngine(
            model, PagedKVPool(TINY, n_blocks=128, block_tokens=16),
            backend_factory("longsight", LS),
            timing=AnalyticTiming(default_systems()["longsight"], LLAMA3_8B,
                                  prefill=PrefillModel())).run(trace)
            for trace in (first, second)]
        assert reports[0].tokens_generated == 7 * 5
        assert reports[0].as_dict() == reports[1].as_dict()
        assert not all(np.array_equal(a.outputs, b.outputs)
                       for a, b in zip(first, second))

    def test_default_systems_cover_the_cast(self):
        systems = default_systems()
        assert set(SYSTEM_NAMES) <= set(systems)
        for system in systems.values():
            assert hasattr(system, "step_latency_s")
            assert hasattr(system, "admits")
