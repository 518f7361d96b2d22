"""End-to-end integration: the DReX-offload backend *is* the kernel.

With a healthy device every row is served by ``LongSightAttention`` at the
backend's config, so the outputs are the same bits; a row the supervisor
answers otherwise is the kernel at the config that answer names.
"""

import numpy as np
import pytest

from repro.core.config import LongSightConfig
from repro.core.hybrid import LongSightAttention
from repro.core.itq import fit_itq
from repro.core.metrics import FilterStats
from repro.drex.backend import DrexOffloadBackend
from repro.faults import FaultPlan
from repro.llm.model import Transformer
from repro.llm.sampling import generate
from tests.conftest import TINY


@pytest.fixture(scope="module")
def model():
    return Transformer(TINY, seed=5)


@pytest.fixture(scope="module")
def tokens():
    return np.random.default_rng(21).integers(0, TINY.vocab_size, size=70)


def _assert_same_bits(model, tokens, software, hardware):
    np.testing.assert_array_equal(
        model.forward_full(tokens, backend=hardware(), block_size=16),
        model.forward_full(tokens, backend=software(), block_size=16))
    np.testing.assert_array_equal(
        generate(model, tokens[:40], 12, backend=hardware()),
        generate(model, tokens[:40], 12, backend=software()))


@pytest.mark.parametrize("thresholds", [0, 5, TINY.head_dim,
                                        TINY.head_dim + 1])
@pytest.mark.parametrize("top_k", [0, 1, 12, 500])
def test_matches_software_backend_exactly(model, tokens, top_k, thresholds):
    """The device-driven path is the software hybrid, bit for bit — the
    paper's Figure 2b equivalence — for teacher-forced blocks and for
    generation, across the numeric edges: an empty top-k, a single key, a
    top-k wider than the context, a filter that passes every key (0), and
    thresholds that pass only exact sign matches (head_dim) or nothing at
    all."""
    config = LongSightConfig(window=8, n_sink=4, top_k=top_k,
                             thresholds=thresholds)
    _assert_same_bits(model, tokens, lambda: LongSightAttention(config),
                      lambda: DrexOffloadBackend(TINY, config))


def test_matches_software_backend_with_itq(model, tokens):
    rotations = fit_itq(model, tokens[:32], n_iter=3)
    config = LongSightConfig(window=8, n_sink=4, top_k=12, thresholds=6,
                             use_itq=True)
    _assert_same_bits(
        model, tokens,
        lambda: LongSightAttention(config, rotations=rotations),
        lambda: DrexOffloadBackend(TINY, config, rotations=rotations))


def test_group_flushing_keeps_staged_tokens_dense(model, tokens):
    """Deferred flushes (capacity pressure) keep tokens staged in the
    dense region: with thresholds=0 and top_k large every token is
    attended densely or via sparse retrieval, so the output equals dense
    attention and no token is lost between HBM and DReX."""
    config = LongSightConfig(window=8, n_sink=4, top_k=64, thresholds=0)
    backend = DrexOffloadBackend(
        TINY, config, plan=FaultPlan(capacity_pressure_rate=0.6, seed=4))
    hardware = model.forward_full(tokens, backend=backend, block_size=16)
    assert backend.supervisor.stats.flush_deferrals > 0
    np.testing.assert_allclose(hardware, model.forward_full(tokens),
                               atol=1e-12)


@pytest.mark.parametrize("plan", [
    FaultPlan(capacity_pressure_rate=0.5, seed=1),
    FaultPlan(capacity_pressure_rate=0.5, cxl_timeout_rate=0.7, seed=2)])
def test_each_row_is_the_kernel_at_its_served_config(rng, plan):
    """Row by row, a deferred flush serves the kernel at ``window = p -
    flushed + 1`` and a degraded offload the same window at ``top_k =
    0``."""
    config = LongSightConfig(window=6, n_sink=2, top_k=5, thresholds=7)
    backend = DrexOffloadBackend(TINY, config, plan=plan)
    n_ctx = 40
    k = rng.normal(size=(TINY.n_kv_heads, n_ctx, TINY.head_dim))
    v = rng.normal(size=k.shape)
    q = rng.normal(size=(TINY.n_q_heads, n_ctx, TINY.head_dim))
    served = set()
    for p in range(n_ctx):
        degraded = len(backend.degraded_log)
        out = backend.forward(0, q[:, p:p + 1], k[:, :p + 1], v[:, :p + 1])
        flushed = backend._session.flushed.get(0, config.n_sink)
        row = config.replace(window=max(config.window, p - flushed + 1))
        if len(backend.degraded_log) > degraded:
            row = row.replace(top_k=0)
        served.add((row.window > config.window, row.top_k == 0))
        np.testing.assert_array_equal(out, LongSightAttention(row).forward(
            0, q[:, p:p + 1], k[:, :p + 1], v[:, :p + 1]))
    assert (True, False) in served and (False, False) in served
    if plan.cxl_timeout_rate:
        assert (False, True) in served


def test_latency_accumulates(model, tokens):
    config = LongSightConfig(window=8, n_sink=4, top_k=8, thresholds=4)
    backend = DrexOffloadBackend(TINY, config)
    model.forward_full(tokens, backend=backend, block_size=16)
    assert backend.n_offloads > 0
    assert backend.total_latency.total_ns > 0
    mean = backend.mean_offload_latency()
    assert 0 < mean.total_ns < backend.total_latency.total_ns


def test_requires_rotations_for_itq():
    with pytest.raises(ValueError):
        DrexOffloadBackend(TINY, LongSightConfig(use_itq=True))


def test_device_population_follows_flush(model, tokens):
    config = LongSightConfig(window=8, n_sink=4, top_k=8, thresholds=0)
    backend = DrexOffloadBackend(TINY, config)
    model.forward_full(tokens, backend=backend, block_size=16)
    n = len(tokens)
    expected = n - 1 - config.window + 1 - config.n_sink
    assert backend.device.context_length(0, 0, 0) == expected


def test_sustained_capacity_pressure_keeps_the_kernel_memo_bounded(model,
                                                                   tokens):
    """At ``capacity_pressure_rate=1.0`` no flush ever lands, so a
    deferred row's window widens every token.  Only the backend's own
    window is memoised (its kernel and dense floor): a deferred window's
    kernel lives for its one call, so a long session keeps at most two,
    and generates what it did when every window was memoised."""
    config = LongSightConfig(window=4, n_sink=2, top_k=4, thresholds=3)
    backend = DrexOffloadBackend(
        TINY, config, plan=FaultPlan(capacity_pressure_rate=1.0))
    out = generate(model, tokens[:20], 60, backend=backend,
                   temperature=1.0, seed=3)
    assert backend.supervisor.stats.flush_deferrals > 0
    assert len(backend._kernels) <= 2
    assert [int(t) for t in out] == [
        5, 14, 51, 36, 6, 27, 29, 10, 46, 7, 24, 33, 28, 37, 46, 61, 19, 40,
        45, 19, 0, 62, 20, 19, 56, 36, 30, 50, 2, 44, 24, 6, 41, 59, 13, 39,
        19, 46, 46, 14, 52, 42, 43, 52, 27, 48, 55, 6, 54, 24, 30, 9, 44, 18,
        55, 18, 35, 25, 39, 12]


def test_a_deferred_row_is_computed_once(model, tokens):
    """Capacity pressure is decided for a whole block before it runs: a
    row whose flush is deferred runs once, alone at its widened window,
    and is not also computed inside the kernel's block, so the filter
    counts no more queries than a healthy device's run."""
    config = LongSightConfig(window=8, n_sink=4, top_k=12, thresholds=5)

    def queries(plan):
        stats = FilterStats(TINY.n_layers, TINY.n_kv_heads)
        backend = DrexOffloadBackend(TINY, config, plan=plan, stats=stats)
        model.forward_full(tokens, backend=backend, block_size=16)
        return int(stats.queries.sum()), backend.supervisor.stats

    healthy, _ = queries(FaultPlan.none())
    pressured, stats = queries(FaultPlan(capacity_pressure_rate=0.5, seed=1))
    assert stats.flush_deferrals > 0
    assert pressured <= healthy
