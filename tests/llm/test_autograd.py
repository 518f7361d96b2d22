"""Gradient checks for the autograd engine, op by op."""

import numpy as np
import pytest

from repro.llm import autograd as ag


def numeric_grad(f, x, eps=1e-6):
    grad = np.zeros_like(x)
    it = np.nditer(x, flags=["multi_index"])
    while not it.finished:
        i = it.multi_index
        x[i] += eps
        up = f()
        x[i] -= 2 * eps
        down = f()
        x[i] += eps
        grad[i] = (up - down) / (2 * eps)
        it.iternext()
    return grad


def check(build, *tensors, atol=1e-7):
    """Compare autograd gradients of scalar `build()` against finite diffs."""
    for t in tensors:
        t.grad = None
    loss = build()
    loss.backward()
    for t in tensors:
        expected = numeric_grad(lambda: float(build().data), t.data)
        assert t.grad is not None
        np.testing.assert_allclose(t.grad, expected, atol=atol)


@pytest.fixture
def rng():
    return np.random.default_rng(99)


def test_add_broadcast(rng):
    a = ag.Tensor(rng.normal(size=(3, 4)), requires_grad=True)
    b = ag.Tensor(rng.normal(size=(4,)), requires_grad=True)
    check(lambda: (a + b).sum(), a, b)


def test_mul_broadcast(rng):
    a = ag.Tensor(rng.normal(size=(2, 3, 4)), requires_grad=True)
    b = ag.Tensor(rng.normal(size=(3, 1)), requires_grad=True)
    check(lambda: (a * b).sum(), a, b)


def test_sub_div(rng):
    a = ag.Tensor(rng.normal(size=(3, 3)) + 3.0, requires_grad=True)
    b = ag.Tensor(rng.normal(size=(3, 3)) + 3.0, requires_grad=True)
    check(lambda: (a * b ** -1.0 - b).sum(), a, b)  # a / b - b


def test_pow(rng):
    a = ag.Tensor(np.abs(rng.normal(size=(5,))) + 0.5, requires_grad=True)
    check(lambda: (a ** 3.0).sum(), a)
    check(lambda: (a ** -0.5).sum(), a)


def test_matmul_2d(rng):
    a = ag.Tensor(rng.normal(size=(3, 4)), requires_grad=True)
    b = ag.Tensor(rng.normal(size=(4, 2)), requires_grad=True)
    check(lambda: (a @ b).sum(), a, b)


def test_matmul_batched(rng):
    a = ag.Tensor(rng.normal(size=(2, 3, 4)), requires_grad=True)
    b = ag.Tensor(rng.normal(size=(2, 4, 5)), requires_grad=True)
    check(lambda: (a @ b).sum(), a, b)


def test_matmul_broadcast_rhs(rng):
    a = ag.Tensor(rng.normal(size=(2, 3, 4)), requires_grad=True)
    b = ag.Tensor(rng.normal(size=(4, 5)), requires_grad=True)
    check(lambda: (a @ b).sum(), a, b)


def test_reshape_transpose_swapaxes(rng):
    a = ag.Tensor(rng.normal(size=(2, 3, 4)), requires_grad=True)
    check(lambda: a.reshape(6, 4).sum(), a)
    check(lambda: a.transpose(2, 0, 1).sum(), a)
    check(lambda: a.swapaxes(0, 2).sum(), a)


def test_getitem_slice_and_fancy(rng):
    a = ag.Tensor(rng.normal(size=(4, 6)), requires_grad=True)
    check(lambda: a[1:3, ::2].sum(), a)
    idx = np.array([0, 0, 2])
    check(lambda: a[:, idx].sum(), a)


def test_sum_mean_axes(rng):
    a = ag.Tensor(rng.normal(size=(3, 4, 5)), requires_grad=True)
    check(lambda: a.sum(axis=1).sum(), a)
    check(lambda: a.mean(axis=-1, keepdims=True).sum(), a)
    check(lambda: a.mean(), a)


def test_silu(rng):
    a = ag.Tensor(rng.normal(size=(3, 4)), requires_grad=True)
    check(lambda: a.silu().sum(), a)


def test_softmax_weighted(rng):
    a = ag.Tensor(rng.normal(size=(3, 5)), requires_grad=True)
    w = np.arange(5.0)
    check(lambda: (a.softmax(-1) * w).sum(), a)


def test_concat(rng):
    a = ag.Tensor(rng.normal(size=(3, 2)), requires_grad=True)
    b = ag.Tensor(rng.normal(size=(3, 4)), requires_grad=True)
    check(lambda: (ag.concat([a, b], axis=-1) ** 2.0).sum(), a, b)


def test_embedding(rng):
    w = ag.Tensor(rng.normal(size=(10, 4)), requires_grad=True)
    idx = np.array([[1, 2], [2, 9]])
    check(lambda: (ag.embedding(w, idx) ** 2.0).sum(), w)


def test_rms_norm(rng):
    x = ag.Tensor(rng.normal(size=(3, 6)), requires_grad=True)
    w = ag.Tensor(np.ones(6) + 0.1 * rng.normal(size=6), requires_grad=True)
    check(lambda: (ag.rms_norm(x, w) ** 2.0).sum(), x, w, atol=1e-6)


def test_softmax_cross_entropy(rng):
    logits = ag.Tensor(rng.normal(size=(4, 7)), requires_grad=True)
    targets = rng.integers(0, 7, size=4)
    check(lambda: ag.softmax_cross_entropy(logits, targets), logits)


def test_cross_entropy_matches_reference(rng):
    from repro.llm.ops import cross_entropy

    logits = rng.normal(size=(5, 9))
    targets = rng.integers(0, 9, size=5)
    t = ag.Tensor(logits)
    loss = ag.softmax_cross_entropy(t, targets)
    assert np.isclose(float(loss.data), cross_entropy(logits, targets))


def test_grad_accumulates_over_reuse(rng):
    a = ag.Tensor(rng.normal(size=(3,)), requires_grad=True)
    check(lambda: (a * a + a).sum(), a)


def test_backward_requires_scalar():
    a = ag.Tensor(np.ones((2, 2)), requires_grad=True)
    with pytest.raises(ValueError):
        (a * 2).backward()


def test_no_grad_without_requires():
    a = ag.Tensor(np.ones(3))
    b = ag.Tensor(np.ones(3), requires_grad=True)
    (a * b).sum().backward()
    assert a.grad is None
    assert b.grad is not None
