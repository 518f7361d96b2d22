"""Hypothesis fuzzing of the cross-layer equivalences.

These are the load-bearing invariants of the reproduction: the software
hybrid backend degenerates to dense attention in the right limits, and the
counts the DReX device prices agree with the hardware units' filter under
random configurations.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import LongSightConfig
from repro.core.hybrid import LongSightAttention
from repro.faults import FaultPlan
from repro.llm.model import Transformer
from tests.conftest import TINY
from tests.drex.hardware_reference import offload

MODEL = Transformer(TINY, seed=13)


@given(window=st.integers(min_value=1, max_value=20),
       n_sink=st.integers(min_value=0, max_value=6),
       seed=st.integers(min_value=0, max_value=10_000))
@settings(max_examples=15, deadline=None)
def test_hybrid_equals_dense_whenever_everything_attends(window, n_sink,
                                                         seed):
    """thresholds=0 and k >= context must reproduce dense attention for
    ANY window/sink split."""
    rng = np.random.default_rng(seed)
    tokens = rng.integers(0, TINY.vocab_size, size=40)
    dense = MODEL.forward_full(tokens)
    config = LongSightConfig(window=window, n_sink=n_sink, top_k=40,
                             thresholds=0)
    hybrid = MODEL.forward_full(tokens, backend=LongSightAttention(config))
    np.testing.assert_allclose(dense, hybrid, atol=1e-12)


@given(threshold=st.integers(min_value=0, max_value=TINY.head_dim),
       k=st.integers(min_value=1, max_value=60),
       n_keys=st.integers(min_value=1, max_value=400),
       n_new=st.sampled_from([1, 7]),
       seed=st.integers(min_value=0, max_value=10_000))
@settings(max_examples=20, deadline=None)
def test_device_always_matches_reference(threshold, k, n_keys, n_new, seed):
    """Every offload the backend submits carries the filter counts the
    hardware units compute from the same keys: each query's passes and,
    per KV head, the group's survivor bitmap over the stored keys."""
    from repro.drex.backend import DrexOffloadBackend

    rng = np.random.default_rng(seed)
    config = LongSightConfig(window=5, n_sink=3, top_k=k,
                             thresholds=threshold)
    n_ctx = n_keys + config.window + config.n_sink + n_new - 1
    keys = rng.normal(size=(TINY.n_kv_heads, n_ctx, TINY.head_dim))
    values = rng.normal(size=keys.shape)
    queries = rng.normal(size=(TINY.n_q_heads, n_new, TINY.head_dim))
    backend = DrexOffloadBackend(TINY, config)
    submitted = []
    execute = backend.device.execute
    backend.device.execute = \
        lambda r, *site: submitted.append(r) or execute(r, *site)
    backend.forward(0, queries, keys, values)
    assert len(submitted) == n_new
    group = TINY.gqa_group_size
    for request in submitted:
        for kv_head in range(TINY.n_kv_heads):
            stored = request.survivors[kv_head]
            heads = slice(kv_head * group, (kv_head + 1) * group)
            _, survive = offload(
                request.queries[heads],
                keys[kv_head, config.n_sink:config.n_sink + len(stored)],
                threshold, k)
            np.testing.assert_array_equal(stored, survive.any(axis=0))
            np.testing.assert_array_equal(request.passed[heads],
                                          survive.sum(axis=1))


@given(seed=st.integers(min_value=0, max_value=10_000),
       pressure=st.sampled_from([0.0, 0.3, 0.7, 1.0]))
@settings(max_examples=8, deadline=None)
def test_backend_never_drops_tokens(seed, pressure):
    """Whatever flushes capacity pressure defers, thresholds=0 + big k
    must equal dense attention: every token is attended somewhere (HBM
    staging or DReX), never lost in between."""
    from repro.drex.backend import DrexOffloadBackend

    rng = np.random.default_rng(seed)
    tokens = rng.integers(0, TINY.vocab_size, size=50)
    dense = MODEL.forward_full(tokens)
    config = LongSightConfig(window=6, n_sink=2, top_k=50, thresholds=0)
    backend = DrexOffloadBackend(TINY, config, plan=FaultPlan(
        capacity_pressure_rate=pressure, seed=seed))
    out = MODEL.forward_full(tokens, backend=backend, block_size=16)
    np.testing.assert_allclose(dense, out, atol=1e-12)
