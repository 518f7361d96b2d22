"""Pure-numpy functional building blocks for the inference path.

Everything here is stateless and operates on plain ``np.ndarray`` values.
The training path uses the autograd wrappers in :mod:`repro.llm.autograd`;
these functions define the reference forward semantics that both paths
must agree on (see ``tests/llm/test_model_equivalence.py``).

Kept unreached: ``cross_entropy`` — reference oracle of the autograd and
training losses.
"""

from __future__ import annotations

import numpy as np


#: ``exp`` is exactly 0.0 below this in float64 (and float32), so
#: :func:`softmax` writes 0.0 there instead of calling it: numpy's exp
#: takes a slow path on such inputs, ``-inf`` (a masked score) included.
_EXP_ZERO_BELOW = -746.0


def softmax(x: np.ndarray, axis: int = -1) -> np.ndarray:
    """Numerically stable softmax along ``axis``.

    One temporary: the shifted scores are exponentiated and normalised in
    place, and a score whose exponential is exactly 0 is set, not
    computed — the same bits as ``exp(x - max) / sum``, faster on masked
    rows.
    """
    e = x - np.max(x, axis=axis, keepdims=True)
    live = ~(e < _EXP_ZERO_BELOW)         # NaN stays live and propagates
    np.exp(e, out=e, where=live)
    np.copyto(e, 0.0, where=~live)
    e /= np.sum(e, axis=axis, keepdims=True)
    return e


def log_softmax(x: np.ndarray, axis: int = -1) -> np.ndarray:
    """Numerically stable log-softmax along ``axis``."""
    shifted = x - np.max(x, axis=axis, keepdims=True)
    return shifted - np.log(np.sum(np.exp(shifted), axis=axis, keepdims=True))


def rms_norm(x: np.ndarray, weight: np.ndarray, eps: float = 1e-5) -> np.ndarray:
    """Root-mean-square layer norm (no mean subtraction), as in Llama."""
    rms = np.sqrt(np.mean(np.square(x), axis=-1, keepdims=True) + eps)
    return x / rms * weight


def silu(x: np.ndarray) -> np.ndarray:
    """Sigmoid-weighted linear unit: ``x * sigmoid(x)``."""
    return x / (1.0 + np.exp(-x))


def swiglu(x: np.ndarray, w_gate: np.ndarray, w_up: np.ndarray,
           w_down: np.ndarray, matmul=np.matmul) -> np.ndarray:
    """SwiGLU feed-forward: ``(silu(x @ Wg) * (x @ Wu)) @ Wd``.

    ``matmul`` is the product to use for the three ``@`` (the decode step
    passes its batch-invariant one).
    """
    return matmul(silu(matmul(x, w_gate)) * matmul(x, w_up), w_down)


def cross_entropy(logits: np.ndarray, targets: np.ndarray) -> float:
    """Mean cross-entropy of integer ``targets`` under ``logits``.

    ``logits`` has shape ``(..., vocab)`` and ``targets`` the matching
    leading shape.
    """
    logp = log_softmax(logits, axis=-1)
    flat = logp.reshape(-1, logp.shape[-1])
    idx = targets.reshape(-1)
    return float(-np.mean(flat[np.arange(flat.shape[0]), idx]))


def causal_mask(n_q: int, n_k: int) -> np.ndarray:
    """Boolean mask, True where query i may attend key j.

    Queries are assumed to be the *last* ``n_q`` positions of a length
    ``n_k`` context, which covers both prefill (``n_q == n_k``) and decode
    (``n_q == 1``).
    """
    if n_q > n_k:
        raise ValueError("cannot have more queries than keys in causal mask")
    q_pos = np.arange(n_k - n_q, n_k)[:, None]
    k_pos = np.arange(n_k)[None, :]
    return k_pos <= q_pos
