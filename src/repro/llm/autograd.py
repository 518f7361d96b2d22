"""A small reverse-mode autograd engine over numpy.

Only the operations needed to train the transformer substrate are
implemented, but each is a proper broadcast-aware primitive with a gradient
verified against finite differences (``tests/llm/test_autograd.py``).

Usage::

    a = Tensor(np.random.randn(3, 4), requires_grad=True)
    b = Tensor(np.random.randn(4, 2), requires_grad=True)
    loss = (a @ b).sum()
    loss.backward()
    # a.grad, b.grad now hold dloss/da, dloss/db
"""

from __future__ import annotations

from typing import Callable, Iterable, Optional, Sequence, Union

import numpy as np

ArrayLike = Union[np.ndarray, float, int]


def _unbroadcast(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum ``grad`` down to ``shape``, undoing numpy broadcasting."""
    if grad.shape == shape:
        return grad
    # Sum over leading axes that were added by broadcasting.
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    # Sum over axes that were broadcast from size 1.
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad.reshape(shape)


class Tensor:
    """A numpy array plus gradient bookkeeping."""

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward")

    def __init__(self, data: ArrayLike, requires_grad: bool = False) -> None:
        self.data = np.asarray(data, dtype=np.float64)
        self.grad: Optional[np.ndarray] = None
        self.requires_grad = requires_grad
        self._parents: tuple[Tensor, ...] = ()
        self._backward: Optional[Callable[[np.ndarray], None]] = None

    # -- basics -------------------------------------------------------------

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    def __repr__(self) -> str:
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad})"

    def _accumulate(self, grad: np.ndarray) -> None:
        if self.grad is None:
            self.grad = grad.copy()
        else:
            self.grad += grad

    def backward(self, grad: Optional[np.ndarray] = None) -> None:
        """Backpropagate from this tensor (must be scalar unless grad given)."""
        if grad is None:
            if self.data.size != 1:
                raise ValueError("backward() without grad requires a scalar")
            grad = np.ones_like(self.data)
        topo: list[Tensor] = []
        seen: set[int] = set()

        def visit(t: Tensor) -> None:
            if id(t) in seen:
                return
            seen.add(id(t))
            for p in t._parents:
                visit(p)
            topo.append(t)

        visit(self)
        grads: dict[int, np.ndarray] = {id(self): np.asarray(grad, dtype=np.float64)}
        for t in reversed(topo):
            g = grads.pop(id(t), None)
            if g is None:
                continue
            if t.requires_grad:
                t._accumulate(g)
            if t._backward is not None:
                for parent, pg in t._backward(g):
                    if id(parent) in grads:
                        grads[id(parent)] += pg
                    else:
                        grads[id(parent)] = pg

    # -- operator helpers ----------------------------------------------------

    @staticmethod
    def _lift(x: Union["Tensor", ArrayLike]) -> "Tensor":
        return x if isinstance(x, Tensor) else Tensor(x)

    @staticmethod
    def _node(data: np.ndarray, parents: Sequence["Tensor"],
              backward: Callable[[np.ndarray], list]) -> "Tensor":
        out = Tensor(data)
        tracked = tuple(p for p in parents if p.requires_grad or p._parents)
        if tracked:
            out._parents = tracked
            out._backward = lambda g: [
                (p, pg) for p, pg in backward(g) if p in tracked
            ]
        return out

    # -- arithmetic ----------------------------------------------------------

    def __add__(self, other: Union["Tensor", ArrayLike]) -> "Tensor":
        other = self._lift(other)
        return self._node(
            self.data + other.data,
            (self, other),
            lambda g: [
                (self, _unbroadcast(g, self.shape)),
                (other, _unbroadcast(g, other.shape)),
            ],
        )

    __radd__ = __add__

    def __neg__(self) -> "Tensor":
        return self._node(-self.data, (self,), lambda g: [(self, -g)])

    def __sub__(self, other: Union["Tensor", ArrayLike]) -> "Tensor":
        return self + (-self._lift(other))

    def __rsub__(self, other: ArrayLike) -> "Tensor":
        return self._lift(other) + (-self)

    def __mul__(self, other: Union["Tensor", ArrayLike]) -> "Tensor":
        other = self._lift(other)
        return self._node(
            self.data * other.data,
            (self, other),
            lambda g: [
                (self, _unbroadcast(g * other.data, self.shape)),
                (other, _unbroadcast(g * self.data, other.shape)),
            ],
        )

    __rmul__ = __mul__

    def __truediv__(self, other: Union["Tensor", ArrayLike]) -> "Tensor":
        other = self._lift(other)
        return self * other ** -1.0

    def __rtruediv__(self, other: ArrayLike) -> "Tensor":
        return self._lift(other) * self ** -1.0

    def __pow__(self, exponent: float) -> "Tensor":
        data = self.data ** exponent
        return self._node(
            data,
            (self,),
            lambda g: [(self, g * exponent * self.data ** (exponent - 1.0))],
        )

    def __matmul__(self, other: "Tensor") -> "Tensor":
        other = self._lift(other)

        def backward(g: np.ndarray) -> list:
            ga = np.matmul(g, np.swapaxes(other.data, -1, -2))
            gb = np.matmul(np.swapaxes(self.data, -1, -2), g)
            return [
                (self, _unbroadcast(ga, self.shape)),
                (other, _unbroadcast(gb, other.shape)),
            ]

        return self._node(np.matmul(self.data, other.data), (self, other), backward)

    # -- shape ops -----------------------------------------------------------

    def reshape(self, *shape: int) -> "Tensor":
        old = self.shape
        return self._node(
            self.data.reshape(shape),
            (self,),
            lambda g: [(self, g.reshape(old))],
        )

    def transpose(self, *axes: int) -> "Tensor":
        inv = np.argsort(axes)
        return self._node(
            self.data.transpose(axes),
            (self,),
            lambda g: [(self, g.transpose(inv))],
        )

    def swapaxes(self, a: int, b: int) -> "Tensor":
        return self._node(
            np.swapaxes(self.data, a, b),
            (self,),
            lambda g: [(self, np.swapaxes(g, a, b))],
        )

    def __getitem__(self, key) -> "Tensor":
        def backward(g: np.ndarray) -> list:
            full = np.zeros_like(self.data)
            np.add.at(full, key, g)
            return [(self, full)]

        return self._node(self.data[key], (self,), backward)

    # -- reductions ----------------------------------------------------------

    def sum(self, axis: Optional[Union[int, tuple]] = None,
            keepdims: bool = False) -> "Tensor":
        def backward(g: np.ndarray) -> list:
            if axis is None:
                return [(self, np.broadcast_to(g, self.shape).copy())]
            g_exp = g if keepdims else np.expand_dims(g, axis)
            return [(self, np.broadcast_to(g_exp, self.shape).copy())]

        return self._node(self.data.sum(axis=axis, keepdims=keepdims),
                          (self,), backward)

    def mean(self, axis: Optional[Union[int, tuple]] = None,
             keepdims: bool = False) -> "Tensor":
        if axis is None:
            count = self.data.size
        elif isinstance(axis, tuple):
            count = int(np.prod([self.shape[a] for a in axis]))
        else:
            count = self.shape[axis]
        return self.sum(axis=axis, keepdims=keepdims) * (1.0 / count)

    # -- nonlinearities --------------------------------------------------------

    def exp(self) -> "Tensor":
        data = np.exp(self.data)
        return self._node(data, (self,), lambda g: [(self, g * data)])

    def log(self) -> "Tensor":
        return self._node(np.log(self.data), (self,),
                          lambda g: [(self, g / self.data)])

    def sqrt(self) -> "Tensor":
        return self ** 0.5

    def silu(self) -> "Tensor":
        sig = 1.0 / (1.0 + np.exp(-self.data))
        data = self.data * sig

        def backward(g: np.ndarray) -> list:
            return [(self, g * (sig * (1.0 + self.data * (1.0 - sig))))]

        return self._node(data, (self,), backward)

    def softmax(self, axis: int = -1) -> "Tensor":
        shifted = self.data - self.data.max(axis=axis, keepdims=True)
        e = np.exp(shifted)
        y = e / e.sum(axis=axis, keepdims=True)

        def backward(g: np.ndarray) -> list:
            dot = (g * y).sum(axis=axis, keepdims=True)
            return [(self, y * (g - dot))]

        return self._node(y, (self,), backward)


# -- composite / free functions ------------------------------------------------


def concat(tensors: Iterable[Tensor], axis: int = -1) -> Tensor:
    """Concatenate tensors along ``axis`` (differentiable)."""
    tensors = list(tensors)
    sizes = [t.shape[axis] for t in tensors]
    data = np.concatenate([t.data for t in tensors], axis=axis)

    def backward(g: np.ndarray) -> list:
        splits = np.cumsum(sizes)[:-1]
        parts = np.split(g, splits, axis=axis)
        return list(zip(tensors, parts))

    return Tensor._node(data, tensors, backward)


def embedding(weight: Tensor, indices: np.ndarray) -> Tensor:
    """Row lookup ``weight[indices]`` with scatter-add gradient."""
    idx = np.asarray(indices)

    def backward(g: np.ndarray) -> list:
        full = np.zeros_like(weight.data)
        np.add.at(full, idx, g)
        return [(weight, full)]

    return Tensor._node(weight.data[idx], (weight,), backward)


def rms_norm(x: Tensor, weight: Tensor, eps: float = 1e-5) -> Tensor:
    """RMSNorm built from primitives (matches :func:`repro.llm.ops.rms_norm`)."""
    ms = (x * x).mean(axis=-1, keepdims=True)
    return x * ((ms + eps) ** -0.5) * weight


def softmax_cross_entropy(logits: Tensor, targets: np.ndarray) -> Tensor:
    """Mean cross-entropy of integer ``targets`` under ``logits``.

    Fused for numerical stability; the gradient is
    ``(softmax(logits) - onehot) / N``.
    """
    t = np.asarray(targets).reshape(-1)
    flat_shape = (-1, logits.shape[-1])
    x = logits.data.reshape(flat_shape)
    n = x.shape[0]
    shifted = x - x.max(axis=1, keepdims=True)
    logz = np.log(np.exp(shifted).sum(axis=1, keepdims=True))
    logp = shifted - logz
    loss = -logp[np.arange(n), t].mean()

    def backward(g: np.ndarray) -> list:
        p = np.exp(logp)
        p[np.arange(n), t] -= 1.0
        grad = (float(g) / n) * p
        return [(logits, grad.reshape(logits.shape))]

    return Tensor._node(np.asarray(loss), (logits,), backward)
