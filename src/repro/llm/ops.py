"""Pure-numpy functional building blocks for the inference path.

Everything here is stateless and operates on plain ``np.ndarray`` values.
The training path uses the autograd wrappers in :mod:`repro.llm.autograd`;
these functions define the reference forward semantics that both paths
must agree on (see ``tests/llm/test_model_equivalence.py``).
"""

from __future__ import annotations

import numpy as np


def softmax(x: np.ndarray, axis: int = -1) -> np.ndarray:
    """Numerically stable softmax along ``axis``."""
    shifted = x - np.max(x, axis=axis, keepdims=True)
    e = np.exp(shifted)
    return e / np.sum(e, axis=axis, keepdims=True)


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


def attention(q: np.ndarray, k: np.ndarray, v: np.ndarray,
              mask: np.ndarray | None = None,
              scale: float | None = None) -> np.ndarray:
    """Scaled dot-product attention for a single head.

    Args:
        q: ``(n_q, d)`` queries.
        k: ``(n_k, d)`` keys.
        v: ``(n_k, dv)`` values.
        mask: optional ``(n_q, n_k)`` boolean mask (True = attend).
        scale: score scale; defaults to ``1/sqrt(d)``.

    Returns:
        ``(n_q, dv)`` attention output.
    """
    if scale is None:
        scale = 1.0 / np.sqrt(q.shape[-1])
    scores = (q @ k.T) * scale
    if mask is not None:
        scores = np.where(mask, scores, -np.inf)
    return softmax(scores, axis=-1) @ v


def repeat_kv(x: np.ndarray, group_size: int) -> np.ndarray:
    """Expand ``(n_kv_heads, ...)`` KV tensors to ``(n_q_heads, ...)``.

    Each KV head is repeated ``group_size`` times so that grouped-query
    attention can be computed with per-head dense math.
    """
    return np.repeat(x, group_size, axis=0)
