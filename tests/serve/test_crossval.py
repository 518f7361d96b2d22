"""Cross-validation: the functional engine must agree with the analytic
serving simulator on *which system wins and by how much* (satellite c).

The two layers share the request and report types, the timing adapter
and the arrival trace, but not their loops (admission, prefill and fault
handling differ), so agreement here ties the token-level serving
implementation to the paper's analytic claims: LongSight out-throughputs
the quality-equal dense baseline at long context, and the gap closes
toward the crossover as context shrinks.
"""

import numpy as np
import pytest

from repro.core.config import LongSightConfig
from repro.llm.config import LLAMA3_8B
from repro.llm.model import Transformer
from repro.serve.crossval import (SYSTEM_NAMES, cross_validate,
                                  default_systems, poisson_workload)
from repro.serve.engine import AnalyticTiming
from repro.serve.scheduler import ServeRequest
from repro.system.prefill import PrefillModel
from repro.system.serving_sim import ServingSimulator
from tests.conftest import TINY

LS = LongSightConfig(window=8, n_sink=4, top_k=12, thresholds=3)


@pytest.fixture(scope="module")
def model():
    return Transformer(TINY, seed=0)


@pytest.fixture(scope="module")
def long_context(model):
    return cross_validate(model, LLAMA3_8B, LS, n_requests=5,
                          prompt_tokens=24, charged_prompt_tokens=65_536,
                          output_tokens=10, pool_blocks=128, seed=0)


class TestOrderingAgreement:
    def test_rankings_match_at_long_context(self, long_context):
        assert long_context.orderings_agree, (
            long_context.functional_ranking,
            long_context.analytic_ranking)

    def test_longsight_beats_dense_at_long_context(self, long_context):
        assert long_context.speedup("longsight", "dense") > 1.2
        assert long_context.speedup("longsight", "dense",
                                    layer="analytic") > 1.2

    def test_sliding_window_is_the_floor(self, long_context):
        """The quality-sacrificing baseline is fastest by construction in
        both layers — LongSight approaches it, never beats it."""
        assert long_context.functional_ranking[0] == "sliding_window"
        assert long_context.analytic_ranking[0] == "sliding_window"

    def test_functional_tracks_analytic_magnitude(self, long_context):
        """Beyond ordering: the functional LongSight/dense ratio should be
        within ~25% of the analytic one on the same trace."""
        functional = long_context.speedup("longsight", "dense")
        analytic = long_context.speedup("longsight", "dense",
                                        layer="analytic")
        assert functional == pytest.approx(analytic, rel=0.25)


class TestCrossoverDirection:
    def test_gap_shrinks_at_short_context(self, model, long_context):
        short = cross_validate(model, LLAMA3_8B, LS, n_requests=5,
                               prompt_tokens=24,
                               charged_prompt_tokens=8_192,
                               output_tokens=10, pool_blocks=128, seed=0)
        gap_short = short.speedup("longsight", "dense")
        gap_long = long_context.speedup("longsight", "dense")
        assert gap_short < gap_long  # crossover direction
        # the analytic layer shows the same direction
        assert short.speedup("longsight", "dense", layer="analytic") \
            < long_context.speedup("longsight", "dense", layer="analytic")


class TestPairedWorkload:
    def test_analytic_layer_ignores_prompt_ids(self):
        """The simulator reads arrival, charged prompt length and output
        budget only: a trace carrying prompt ids and its token-free twin
        give equal reports."""
        with_ids = poisson_workload(
            n_requests=7, arrival_rate_per_s=3.0, prompt_tokens=20,
            output_tokens=5, vocab_size=TINY.vocab_size,
            charged_prompt_tokens=32_768, seed=1)
        token_free = [ServeRequest(
            request_id=r.request_id, prompt=np.zeros(0, dtype=np.int64),
            max_new_tokens=r.max_new_tokens, arrival_s=r.arrival_s,
            charged_prompt_tokens=r.charged_prompt_tokens)
            for r in with_ids]
        # functional prompts are laptop scale, charged paper scale
        assert all(0 < len(r.prompt) < r.charged_prompt_tokens
                   for r in with_ids)
        timing = AnalyticTiming(default_systems()["longsight"], LLAMA3_8B,
                                prefill=PrefillModel())
        first, second = (ServingSimulator(timing).run(trace)
                         for trace in (with_ids, token_free))
        assert first.tokens_generated == 7 * 5
        assert first.as_dict() == second.as_dict()
        assert first.step_percentile_s(99.0) \
            == second.step_percentile_s(99.0)

    def test_default_systems_cover_the_cast(self):
        systems = default_systems()
        assert set(SYSTEM_NAMES) <= set(systems)
        for system in systems.values():
            assert hasattr(system, "step_latency_s")
