"""Optimizer and training-loop tests."""

import numpy as np
import pytest

from repro.llm.autograd import Tensor
from repro.llm.training import Adam, TrainResult, cosine_schedule, \
    sample_batches, train
from tests.conftest import TINY


class TestAdam:
    def test_single_step_matches_formula(self):
        p = Tensor(np.array([1.0, 2.0]), requires_grad=True)
        opt = Adam({"p": p}, lr=0.1, clip_norm=0.0)
        p.grad = np.array([0.5, -0.5])
        opt.step()
        # After one step Adam moves by ~lr * sign(grad) (bias-corrected).
        np.testing.assert_allclose(p.data, [1.0 - 0.1, 2.0 + 0.1], atol=1e-6)

    def test_clipping_bounds_update(self):
        p = Tensor(np.zeros(4), requires_grad=True)
        opt = Adam({"p": p}, lr=1.0, clip_norm=1.0)
        p.grad = np.full(4, 100.0)
        norm = opt.step()
        assert norm > 1.0
        assert np.linalg.norm(p.grad) <= 1.0 + 1e-9

    def test_zero_grad(self):
        p = Tensor(np.zeros(2), requires_grad=True)
        opt = Adam({"p": p})
        p.grad = np.ones(2)
        opt.zero_grad()
        assert p.grad is None

    def test_skips_params_without_grad(self):
        p = Tensor(np.ones(2), requires_grad=True)
        q = Tensor(np.ones(2), requires_grad=True)
        opt = Adam({"p": p, "q": q}, lr=0.5)
        p.grad = np.ones(2)
        opt.step()
        np.testing.assert_array_equal(q.data, np.ones(2))
        assert not np.array_equal(p.data, np.ones(2))


class TestSchedule:
    def test_warmup_then_decay(self):
        lr_at = cosine_schedule(1.0, warmup=10, total=100)
        assert lr_at(0) < lr_at(9) <= 1.0
        assert np.isclose(lr_at(9), 1.0)
        assert lr_at(50) < lr_at(10)
        assert np.isclose(lr_at(99), 0.1, atol=0.01)


class TestBatches:
    def test_window_shape_and_bounds(self):
        tokens = np.arange(1000)
        gen = sample_batches(tokens, batch_size=4, seq_len=16,
                             rng=np.random.default_rng(0))
        batch = next(gen)
        assert batch.shape == (4, 17)
        # Windows are contiguous slices of the stream.
        for row in batch:
            np.testing.assert_array_equal(np.diff(row), 1)

    def test_rejects_short_stream(self):
        gen = sample_batches(np.arange(5), 1, 16, np.random.default_rng(0))
        with pytest.raises(ValueError):
            next(gen)


class TestTrain:
    def test_loss_decreases_and_deterministic(self, rng):
        tokens = rng.integers(0, TINY.vocab_size, size=4000)
        a = train(TINY, tokens, steps=25, batch_size=4, seq_len=32, seed=0)
        b = train(TINY, tokens, steps=25, batch_size=4, seq_len=32, seed=0)
        assert isinstance(a, TrainResult)
        assert len(a.losses) == 25
        assert a.losses[-1] < a.losses[0]
        np.testing.assert_array_equal(a.weights["wq.0"], b.weights["wq.0"])

    def test_log_callback(self, rng):
        tokens = rng.integers(0, TINY.vocab_size, size=2000)
        seen = []
        train(TINY, tokens, steps=3, batch_size=2, seq_len=16,
              log=lambda step, loss: seen.append((step, loss)))
        assert [s for s, _ in seen] == [0, 1, 2]
