"""Adam optimizer and training loop for the miniature models.

The paper evaluates on pretrained Llama-3 checkpoints; offline we cannot
load those, so the algorithm experiments run on miniatures *briefly trained*
on synthetic corpora.  Training is what gives the attention maps their
realistic structure (peaked scores, induction-style long-range copying,
attention sinks) — randomly initialized weights would make every sparsity
experiment vacuous.
"""

from __future__ import annotations

import dataclasses
import math
from typing import Callable, Dict, List, Optional

import numpy as np

from repro.llm.autograd import Tensor
from repro.llm.config import ModelConfig
from repro.llm.model import TrainableTransformer, Weights


class Adam:
    """Standard Adam with bias correction and global-norm gradient clipping."""

    def __init__(self, params: Dict[str, Tensor], lr: float = 1e-3,
                 betas: tuple[float, float] = (0.9, 0.95),
                 eps: float = 1e-8, clip_norm: float = 1.0) -> None:
        self.params = params
        self.lr = lr
        self.beta1, self.beta2 = betas
        self.eps = eps
        self.clip_norm = clip_norm
        self.step_count = 0
        self._m = {k: np.zeros_like(p.data) for k, p in params.items()}
        self._v = {k: np.zeros_like(p.data) for k, p in params.items()}

    def zero_grad(self) -> None:
        for p in self.params.values():
            p.grad = None

    def _clip(self) -> float:
        total = 0.0
        for p in self.params.values():
            if p.grad is not None:
                total += float(np.sum(np.square(p.grad)))
        norm = math.sqrt(total)
        if self.clip_norm and norm > self.clip_norm:
            scale = self.clip_norm / (norm + 1e-12)
            for p in self.params.values():
                if p.grad is not None:
                    p.grad *= scale
        return norm

    def step(self, lr: Optional[float] = None) -> float:
        """Apply one update; returns the pre-clip gradient norm."""
        lr = self.lr if lr is None else lr
        norm = self._clip()
        self.step_count += 1
        t = self.step_count
        bc1 = 1.0 - self.beta1 ** t
        bc2 = 1.0 - self.beta2 ** t
        for name, p in self.params.items():
            if p.grad is None:
                continue
            m = self._m[name]
            v = self._v[name]
            m *= self.beta1
            m += (1.0 - self.beta1) * p.grad
            v *= self.beta2
            v += (1.0 - self.beta2) * np.square(p.grad)
            p.data -= lr * (m / bc1) / (np.sqrt(v / bc2) + self.eps)
        return norm


def cosine_schedule(base_lr: float, warmup: int, total: int) -> Callable[[int], float]:
    """Linear warmup then cosine decay to 10% of ``base_lr``."""

    def lr_at(step: int) -> float:
        if step < warmup:
            return base_lr * (step + 1) / max(1, warmup)
        progress = (step - warmup) / max(1, total - warmup)
        return base_lr * (0.1 + 0.9 * 0.5 * (1.0 + math.cos(math.pi * progress)))

    return lr_at


@dataclasses.dataclass
class TrainResult:
    """Outcome of a training run."""

    weights: Weights
    losses: List[float]


def sample_batches(tokens: np.ndarray, batch_size: int, seq_len: int,
                   rng: np.random.Generator):
    """Yield random ``(batch_size, seq_len + 1)`` windows forever."""
    n = len(tokens)
    if n < seq_len + 1:
        raise ValueError("token stream shorter than one training window")
    while True:
        starts = rng.integers(0, n - seq_len - 1, size=batch_size)
        yield np.stack([tokens[s : s + seq_len + 1] for s in starts])


def train(config: ModelConfig, tokens: np.ndarray, steps: int = 300,
          batch_size: int = 8, seq_len: int = 128, lr: float = 3e-3,
          seed: int = 0,
          log: Optional[Callable[[int, float], None]] = None) -> TrainResult:
    """Train a miniature model on a token stream.

    Args:
        config: model architecture (use a ``LLAMA_SIM_*`` preset).
        tokens: 1-D integer token stream.
        steps: optimizer steps.
        batch_size / seq_len: training window shape.
        lr: peak learning rate (cosine schedule, 10% warmup).
        seed: controls init and batch sampling; runs are deterministic.
        log: optional ``(step, loss)`` callback.

    Returns:
        :class:`TrainResult` with final weights and the loss trace.
    """
    rng = np.random.default_rng(seed + 1)
    model = TrainableTransformer(config, seed=seed)
    opt = Adam(model.params, lr=lr)
    schedule = cosine_schedule(lr, warmup=max(1, steps // 10), total=steps)
    batches = sample_batches(np.asarray(tokens), batch_size, seq_len, rng)
    losses: List[float] = []
    for step in range(steps):
        batch = next(batches)
        opt.zero_grad()
        loss = model.loss(batch)
        loss.backward()
        opt.step(lr=schedule(step))
        losses.append(float(loss.data))
        if log is not None:
            log(step, losses[-1])
    return TrainResult(weights=model.export_weights(), losses=losses)
