"""Served == solo on the tightest pool admission allows.

The pool holds exactly the largest session's prompt plus full output, so
sessions keep preempting one another; growth never runs out of victims
before it runs out of need, and every request still completes with solo
``generate``'s tokens — with and without prefix caching, through chunked
prefill of prompts longer than one prefill block.
"""

import numpy as np
from hypothesis import given, settings, target
from hypothesis import strategies as st

from repro.core.config import LongSightConfig
from repro.core.hybrid import LongSightAttention
from repro.llm.config import LLAMA3_8B
from repro.llm.model import DenseBackend, Transformer
from repro.llm.sampling import generate
from repro.serve.engine import AnalyticTiming, ServeEngine
from repro.serve.paged_kv import PagedKVPool
from repro.serve.scheduler import ServeRequest
from repro.system.baselines import DenseGpuSystem
from tests.conftest import TINY

MODEL = Transformer(TINY, seed=3)
LS = LongSightConfig(window=8, n_sink=4, top_k=12, thresholds=3)
BLOCK_TOKENS = 16


@given(n_sessions=st.integers(min_value=2, max_value=6),
       shared=st.sampled_from([0, 16, 48, 300]),
       prefix_caching=st.booleans(),
       sparse=st.booleans(),
       seed=st.integers(min_value=0, max_value=10_000))
@settings(max_examples=15, deadline=None)
def test_exact_fit_pool_serves_every_request_as_solo(
        n_sessions, shared, prefix_caching, sparse, seed):
    rng = np.random.default_rng(seed)
    prefix = rng.integers(0, TINY.vocab_size, size=shared)
    requests = [ServeRequest(
        request_id=i,
        prompt=np.concatenate([prefix, rng.integers(
            0, TINY.vocab_size, size=int(rng.integers(1, 200)))]),
        max_new_tokens=int(rng.integers(1, 65)),
        arrival_s=float(rng.choice([0.0, rng.uniform(0.0, 0.05)])))
        for i in range(n_sessions)]
    pool = PagedKVPool(TINY, n_blocks=max(
        -(-(len(r.prompt) + r.max_new_tokens) // BLOCK_TOKENS)
        for r in requests), block_tokens=BLOCK_TOKENS,
        prefix_caching=prefix_caching)

    def backend(request=None):
        return LongSightAttention(LS) if sparse else DenseBackend()

    engine = ServeEngine(
        MODEL, pool, backend,
        timing=AnalyticTiming(DenseGpuSystem(), LLAMA3_8B))
    report = engine.run(requests)
    # Steer the search toward runs where growth had to preempt.
    target(float(report.preemptions))
    assert len(report.completed) == n_sessions and not report.rejected
    for request in requests:
        assert request.outputs == list(generate(
            MODEL, request.prompt, request.max_new_tokens,
            backend=backend()))
    assert pool.n_free == pool.n_blocks
