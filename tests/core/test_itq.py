"""ITQ rotation learning: orthogonality, loss descent, dot preservation."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.itq import (
    ItqRotations,
    fit_itq,
    learn_itq_rotation,
    quantization_loss,
    random_rotation,
)
from repro.llm.model import Transformer
from tests.conftest import TINY


def clustered_sample(rng, n=300, d=16, offset=2.0):
    """A shifted Gaussian: the kind of clustered distribution ITQ fixes."""
    return rng.normal(size=(n, d)) + offset


class TestRandomRotation:
    @given(st.integers(min_value=2, max_value=24))
    @settings(max_examples=10, deadline=None)
    def test_orthogonal(self, d):
        r = random_rotation(d, seed=1)
        np.testing.assert_allclose(r @ r.T, np.eye(d), atol=1e-9)

    def test_deterministic(self):
        np.testing.assert_array_equal(random_rotation(8, 3),
                                      random_rotation(8, 3))


class TestLearnRotation:
    def test_result_is_orthogonal(self, rng):
        r = learn_itq_rotation(clustered_sample(rng), n_iter=20)
        np.testing.assert_allclose(r @ r.T, np.eye(16), atol=1e-9)

    def test_loss_improves_on_clustered_data(self, rng):
        v = clustered_sample(rng)
        learned = learn_itq_rotation(v, n_iter=40, seed=2)
        baseline = np.eye(16)
        assert quantization_loss(v, learned) < quantization_loss(v, baseline)

    def test_loss_non_increasing_across_iterations(self, rng):
        v = clustered_sample(rng, n=200)
        losses = [quantization_loss(v, learn_itq_rotation(v, n_iter=i, seed=7))
                  for i in (1, 5, 15, 40)]
        for earlier, later in zip(losses, losses[1:]):
            assert later <= earlier + 1e-9

    def test_rebalances_sign_bits(self, rng):
        """On a shifted cloud most raw signs are positive; the learned
        rotation must spread them toward 50/50 — the property SCF needs."""
        v = clustered_sample(rng, n=500, offset=1.5)
        raw_balance = np.abs((v >= 0).mean(axis=0) - 0.5).mean()
        r = learn_itq_rotation(v, n_iter=40, seed=0)
        rotated_balance = np.abs(((v @ r) >= 0).mean(axis=0) - 0.5).mean()
        assert rotated_balance < raw_balance

    def test_preserves_dot_products(self, rng):
        v = clustered_sample(rng)
        r = learn_itq_rotation(v, n_iter=10)
        q, k = rng.normal(size=(3, 16)), rng.normal(size=(5, 16))
        np.testing.assert_allclose((q @ r) @ (k @ r).T, q @ k.T, atol=1e-9)

    def test_rejects_bad_shape(self, rng):
        with pytest.raises(ValueError):
            learn_itq_rotation(rng.normal(size=(10,)))


class TestRotationBank:
    def test_identity_default(self, rng):
        bank = ItqRotations(2, 2, 8)
        x = rng.normal(size=(4, 8))
        np.testing.assert_array_equal(x @ bank.get(1, 0), x)

    def test_set_get_apply(self, rng):
        bank = ItqRotations(2, 2, 8)
        r = random_rotation(8, 5)
        bank.set(1, 1, r)
        np.testing.assert_array_equal(bank.get(1, 1), r)
        x = rng.normal(size=(3, 8))
        np.testing.assert_allclose(x @ bank.get(1, 1), x @ r)
        # Other slots stay identity.
        np.testing.assert_array_equal(x @ bank.get(0, 1), x)

    def test_shape_validation(self):
        bank = ItqRotations(1, 1, 8)
        with pytest.raises(ValueError):
            bank.set(0, 0, np.eye(4))


class TestFitItq:
    def test_fits_all_heads_orthogonally(self, rng):
        model = Transformer(TINY, seed=9)
        tokens = rng.integers(0, TINY.vocab_size, size=64)
        bank = fit_itq(model, tokens, n_iter=5)
        assert bank.matrices.shape == (TINY.n_layers, TINY.n_kv_heads,
                                       TINY.head_dim, TINY.head_dim)
        for layer in range(TINY.n_layers):
            for head in range(TINY.n_kv_heads):
                r = bank.get(layer, head)
                np.testing.assert_allclose(r @ r.T, np.eye(TINY.head_dim),
                                           atol=1e-9)
                # Must not be the identity (something was learned).
                assert not np.allclose(r, np.eye(TINY.head_dim))
