"""Iterative Quantization (ITQ) rotations, Section 5.4.

SCF assumes sign bits are balanced; Llama K/Q representations cluster, which
starves the filter.  ITQ (Gong & Lazebnik, CVPR'11) learns an orthogonal
rotation ``R`` minimizing the binary quantization error
``|| sign(VR) - VR ||_F^2``.  Because ``R`` is orthogonal it preserves dot
products exactly — scores are unaffected; only the sign-bit geometry
improves.

Per the paper, one rotation is trained per (layer, KV head) on a ~1K-token
sample of *post-RoPE* keys and queries ("positional embeddings break
distance invariance, so ITQ cannot be fused into the projection layers").
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.core.scf import sign_pm1
from repro.llm.kv_cache import KVCache
from repro.llm.model import DenseBackend, Transformer


def random_rotation(d: int, seed: int = 0) -> np.ndarray:
    """A Haar-ish random orthogonal matrix via QR of a Gaussian."""
    rng = np.random.default_rng(seed)
    q, r = np.linalg.qr(rng.normal(size=(d, d)))
    return q * np.sign(np.diag(r))


def quantization_loss(vectors: np.ndarray, rotation: np.ndarray) -> float:
    """Mean squared distance between rotated vectors and their sign codes."""
    projected = vectors @ rotation
    return float(np.mean(np.square(sign_pm1(projected) - projected)))


def learn_itq_rotation(vectors: np.ndarray, n_iter: int = 50,
                       seed: int = 0) -> np.ndarray:
    """Learn an orthogonal ``(D, D)`` ITQ rotation for ``(N, D)`` samples.

    Alternates the two ITQ steps: fix R, set codes ``B = sign(VR)``; fix B,
    solve the orthogonal Procrustes problem ``min_R ||B - VR||`` via SVD of
    ``V^T B``.  The loss is non-increasing (property-tested).
    """
    vectors = np.asarray(vectors, dtype=np.float64)
    if vectors.ndim != 2:
        raise ValueError("expected (N, D) sample matrix")
    d = vectors.shape[1]
    rotation = random_rotation(d, seed)
    for _ in range(n_iter):
        codes = sign_pm1(vectors @ rotation)
        u, _, vt = np.linalg.svd(vectors.T @ codes)
        rotation = u @ vt
    return rotation


class ItqRotations:
    """Per-(layer, KV head) rotation bank.

    Stored as ``(n_layers, n_kv_heads, D, D)``; identity by default.
    """

    def __init__(self, n_layers: int, n_kv_heads: int, head_dim: int) -> None:
        self.n_layers = n_layers
        self.n_kv_heads = n_kv_heads
        self.head_dim = head_dim
        eye = np.eye(head_dim)
        self.matrices = np.broadcast_to(
            eye, (n_layers, n_kv_heads, head_dim, head_dim)).copy()

    def set(self, layer: int, kv_head: int, rotation: np.ndarray) -> None:
        if rotation.shape != (self.head_dim, self.head_dim):
            raise ValueError("rotation shape mismatch")
        self.matrices[layer, kv_head] = rotation

    def get(self, layer: int, kv_head: int) -> np.ndarray:
        return self.matrices[layer, kv_head]

    def apply(self, layer: int, kv_head: int, x: np.ndarray) -> np.ndarray:
        """Rotate ``(..., D)`` vectors for sign extraction."""
        return x @ self.matrices[layer, kv_head]


class _RecordingBackend(DenseBackend):
    """Dense backend that captures post-RoPE Q/K per layer for ITQ fitting."""

    def __init__(self, n_layers: int) -> None:
        self.queries: list[list[np.ndarray]] = [[] for _ in range(n_layers)]
        self.keys: list[Optional[np.ndarray]] = [None] * n_layers

    def forward_cached(self, layer: int, q: np.ndarray,
                       cache: KVCache) -> np.ndarray:
        self.queries[layer].append(q.copy())
        # cumulative history; the final call has all of it
        self.keys[layer] = cache.layers[layer].keys.copy()
        return super().forward_cached(layer, q, cache)


def fit_itq(model: Transformer, tokens: np.ndarray, n_iter: int = 50,
            seed: int = 0) -> ItqRotations:
    """Fit per-(layer, KV head) rotations from a short token sample.

    Runs the model once over ``tokens`` (paper: a 1K-token sequence),
    collects post-RoPE keys and queries, and trains a rotation per KV head
    on the union of that head's keys and its group's queries.  Requires no
    task-specific data and is fast (the paper reports under a minute for
    Llama-3-8B; seconds here).
    """
    config = model.config
    recorder = _RecordingBackend(config.n_layers)
    model.forward_full(np.asarray(tokens), backend=recorder)
    rotations = ItqRotations(config.n_layers, config.n_kv_heads, config.head_dim)
    group = config.gqa_group_size
    for layer in range(config.n_layers):
        q_all = np.concatenate(recorder.queries[layer], axis=1)  # (Hq, n, d)
        k_all = recorder.keys[layer]  # (Hkv, n, d)
        for kv_head in range(config.n_kv_heads):
            q_heads = q_all[kv_head * group : (kv_head + 1) * group]
            sample = np.concatenate(
                [k_all[kv_head]] + [q_heads[g] for g in range(group)], axis=0)
            rotation = learn_itq_rotation(sample, n_iter=n_iter,
                                          seed=seed + 31 * layer + kv_head)
            rotations.set(layer, kv_head, rotation)
    return rotations
