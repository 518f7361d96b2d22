"""Supervisor tests: retries, repair, degradation, and the healthy path."""

import numpy as np
import pytest

from repro.core.config import LongSightConfig
from repro.core.hybrid import (LongSightAttention, SlidingWindowAttention)
from repro.core.metrics import FilterStats
from repro.drex.backend import DrexOffloadBackend
from repro.drex.device import DrexDevice
from repro.drex.supervisor import (BACKOFF_MULTIPLIER, BASE_BACKOFF_NS,
                                   JITTER, MAX_RETRIES, OffloadSupervisor)
from repro.errors import UnknownUserError
from repro.faults import FaultPlan
from repro.llm.kv_cache import KVCache
from repro.llm.model import Transformer

pytestmark = pytest.mark.chaos

CFG = LongSightConfig(window=8, n_sink=4, top_k=12, thresholds=5)


def _decode(tiny_config, backend, n_tokens=70, seed=5):
    model = Transformer(tiny_config, seed=seed)
    tokens = np.random.default_rng(21).integers(
        0, tiny_config.vocab_size, size=n_tokens)
    return model.forward_full(tokens, backend=backend, block_size=16)


class TestZeroFaultEquivalence:
    """FaultPlan.none(): supervision must be an exact no-op."""

    def test_bit_identical_outputs_and_selections(self, tiny_config):
        backend = DrexOffloadBackend(tiny_config, CFG)
        backend.selection_capture = {}
        out = _decode(tiny_config, backend)
        stats = backend.supervisor.stats
        assert stats.attempts == stats.succeeded \
            == backend.sparse_token_attempts > 0
        assert stats.retries == stats.degraded == stats.flush_deferrals == 0
        assert backend.degraded_tokens == 0
        assert backend.device.injector.total_fired == 0

        # No fault is decided and no backoff drawn, so the plan's seed
        # cannot reach the outputs or the selected keys.
        reseeded = DrexOffloadBackend(
            tiny_config, CFG, plan=FaultPlan.none(seed=99))
        reseeded.selection_capture = {}
        np.testing.assert_array_equal(_decode(tiny_config, reseeded), out)
        assert set(reseeded.selection_capture) == \
            set(backend.selection_capture)
        for key, indices in backend.selection_capture.items():
            np.testing.assert_array_equal(
                reseeded.selection_capture[key], indices)

    def test_filter_stats_identical(self, tiny_config):
        """The offload backend's filter counters are the software
        kernel's: every sparse row is the kernel's row."""
        stats_device = FilterStats(tiny_config.n_layers,
                                   tiny_config.n_kv_heads)
        backend = DrexOffloadBackend(tiny_config, CFG,
                                     stats=stats_device)
        _decode(tiny_config, backend)
        stats_software = FilterStats(tiny_config.n_layers,
                                     tiny_config.n_kv_heads)
        _decode(tiny_config, LongSightAttention(CFG, stats=stats_software))
        for field in ("candidates", "passed", "retrieved", "queries"):
            np.testing.assert_array_equal(
                getattr(stats_device, field),
                getattr(stats_software, field))

    def test_matches_software_hybrid(self, tiny_config):
        software = _decode(tiny_config, LongSightAttention(CFG))
        supervised = _decode(tiny_config, DrexOffloadBackend(
            tiny_config, CFG, plan=FaultPlan.none()))
        np.testing.assert_array_equal(supervised, software)


class TestProgrammingErrors:
    def test_unknown_user_propagates_instead_of_degrading(self,
                                                          tiny_config):
        """Only the device's operational faults are retried: a request for
        a user the DCC no longer knows is a bug, raised, not a degraded
        token."""
        model = Transformer(tiny_config, seed=5)
        backend = DrexOffloadBackend(tiny_config, CFG)
        cache = KVCache(tiny_config)
        prompt = np.random.default_rng(21).integers(
            0, tiny_config.vocab_size, size=40)
        logits = model.prefill(prompt, cache, backend=backend)
        assert backend.n_offloads > 0
        backend.device.dcc.unregister_user(0)
        with pytest.raises(UnknownUserError):
            model.decode_step(int(np.argmax(logits)), cache, backend=backend)
        assert backend.degraded_tokens == 0
        assert backend.supervisor.stats.retries == 0


class TestTotalFailure:
    """A dead device must degrade to dense sliding-window, not crash."""

    def test_completes_fully_degraded(self, tiny_config):
        backend = DrexOffloadBackend(
            tiny_config, CFG, plan=FaultPlan(cxl_timeout_rate=1.0))
        out = _decode(tiny_config, backend)
        assert np.isfinite(out).all()
        assert backend.degraded_token_fraction == 1.0
        assert backend.degraded_tokens == backend.sparse_token_attempts > 0
        assert len(backend._session.degraded_log) == backend.degraded_tokens
        stats = backend.supervisor.stats
        assert stats.degraded == backend.degraded_tokens
        assert stats.retries == backend.degraded_tokens * MAX_RETRIES

    def test_equals_sliding_window_software(self, tiny_config):
        """A degraded token is the dense floor — the kernel at ``top_k =
        0``, sinks + window — so the output matches the software baseline
        (to round-off: a degraded prefill row is rerun alone)."""
        backend = DrexOffloadBackend(
            tiny_config, CFG, plan=FaultPlan(cxl_timeout_rate=1.0))
        degraded = _decode(tiny_config, backend)
        software = _decode(tiny_config, SlidingWindowAttention(
            window=CFG.window, n_sink=CFG.n_sink))
        np.testing.assert_allclose(degraded, software, atol=1e-10)


class TestRetriesAndRepair:
    def test_transient_faults_are_retried(self, tiny_config):
        backend = DrexOffloadBackend(
            tiny_config, CFG, plan=FaultPlan.uniform(0.3, seed=2))
        out = _decode(tiny_config, backend)
        assert np.isfinite(out).all()
        stats = backend.supervisor.stats
        assert stats.retries > 0
        assert stats.succeeded > 0
        assert stats.backoff_ns > 0.0
        # Most tokens should survive via retry at a 30% transient rate
        # with 3 retries.
        assert backend.degraded_token_fraction < 0.5

    def test_backoff_grows_and_jitters(self, tiny_config):
        """Each backoff's jitter is drawn at its attempt's site: a retry
        asked again waits as long."""
        device = DrexDevice(tiny_config.n_layers, tiny_config.n_kv_heads,
                            tiny_config.n_q_heads, tiny_config.head_dim,
                            plan=FaultPlan(seed=4))
        supervisor = OffloadSupervisor(device)
        d0 = supervisor._backoff(0, (1, 30, 0))
        d2 = supervisor._backoff(2, (1, 30, 2))
        low, high = 1.0 - JITTER, 1.0 + JITTER
        assert low * BASE_BACKOFF_NS <= d0 <= high * BASE_BACKOFF_NS
        full = BASE_BACKOFF_NS * BACKOFF_MULTIPLIER ** 2
        assert low * full <= d2 <= high * full
        assert supervisor._backoff(2, (1, 30, 2)) == d2

    def test_corruption_detected_and_repaired(self, tiny_config):
        plan = FaultPlan(kso_corruption_rate=0.5, seed=6)
        backend = DrexOffloadBackend(
            tiny_config, CFG, plan=plan)
        out = _decode(tiny_config, backend)
        assert np.isfinite(out).all()
        stats = backend.supervisor.stats
        assert stats.corrupted_heads > 0
        assert stats.repairs == stats.corrupted_heads
        # Repair restores checksums: every store ends the run intact.
        for layer in range(tiny_config.n_layers):
            assert backend.device.corrupted_ksos(0, layer) == []

    def test_repaired_run_matches_healthy_run(self, tiny_config):
        """Sign repair reconstructs the exact signs, so a corrupted-then-
        repaired run selects the same keys as a healthy one — provided
        corruption is rare enough that the retry budget never runs out
        and no token degrades."""
        healthy = _decode(tiny_config, DrexOffloadBackend(
            tiny_config, CFG, plan=FaultPlan.none()))
        backend = DrexOffloadBackend(
            tiny_config, CFG,
            plan=FaultPlan(kso_corruption_rate=0.2, seed=6))
        repaired = _decode(tiny_config, backend)
        assert backend.supervisor.stats.repairs > 0
        assert backend.degraded_tokens == 0
        np.testing.assert_array_equal(repaired, healthy)


class TestReproducibility:
    def _run(self, tiny_config, seed):
        backend = DrexOffloadBackend(
            tiny_config, CFG,
            plan=FaultPlan.uniform(0.4, seed=seed))
        out = _decode(tiny_config, backend)
        return out, backend.supervisor.stats.as_dict(), \
            dict(backend.device.injector.counts), \
            list(backend._session.degraded_log)

    def test_same_seed_same_everything(self, tiny_config):
        out_a, stats_a, counts_a, log_a = self._run(tiny_config, seed=13)
        out_b, stats_b, counts_b, log_b = self._run(tiny_config, seed=13)
        np.testing.assert_array_equal(out_a, out_b)
        assert stats_a == stats_b
        assert counts_a == counts_b
        assert log_a == log_b

    def test_different_seed_different_faults(self, tiny_config):
        _, _, counts_a, _ = self._run(tiny_config, seed=13)
        _, _, counts_b, _ = self._run(tiny_config, seed=14)
        assert counts_a != counts_b


class TestCapacityPressure:
    def test_flush_deferral_keeps_tokens_dense(self, tiny_config):
        backend = DrexOffloadBackend(
            tiny_config, CFG,
            plan=FaultPlan(capacity_pressure_rate=0.5, seed=8))
        out = _decode(tiny_config, backend)
        assert np.isfinite(out).all()
        assert backend.supervisor.stats.flush_deferrals > 0
