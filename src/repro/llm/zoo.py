"""Cached, deterministic trained miniatures for experiments and benches.

Training a miniature takes tens of seconds; every benchmark needs the same
checkpoints, so :func:`trained_model` memoizes in-process and persists
weights as ``.npz`` under ``<repo>/.cache/models``.
"""

from __future__ import annotations

import os
import pathlib
from typing import Dict, Optional, Tuple

import numpy as np

from repro.data.synthetic import pg_like
from repro.llm.config import ModelConfig, SIM_MODELS
from repro.llm.model import Transformer, Weights
from repro.llm.training import train

_MEMO: Dict[Tuple[str, int, int], Transformer] = {}

#: Default training recipe per sim model (steps, batch, seq_len, lr).
#: seq_len must comfortably exceed the shortest copy-burst look-back so the
#: induction mechanism is learnable from training windows.
_RECIPES = {
    "llama-sim-small": dict(steps=1200, batch_size=8, seq_len=256, lr=3e-3),
    "llama-sim-base": dict(steps=1000, batch_size=8, seq_len=256, lr=2e-3),
}


def cache_dir() -> pathlib.Path:
    """Directory for persisted checkpoints (override: REPRO_CACHE_DIR)."""
    env = os.environ.get("REPRO_CACHE_DIR")
    if env:
        path = pathlib.Path(env)
    else:
        path = pathlib.Path(__file__).resolve().parents[3] / ".cache" / "models"
    path.mkdir(parents=True, exist_ok=True)
    return path


def _load(path: pathlib.Path) -> Optional[Weights]:
    if not path.exists():
        return None
    with np.load(path) as archive:
        return {name: archive[name] for name in archive.files}


def trained_model(name: str = "llama-sim-small", steps: Optional[int] = None,
                  seed: int = 0, corpus_tokens: int = 400_000) -> Transformer:
    """A deterministic trained miniature.

    Args:
        name: a ``SIM_MODELS`` key.
        steps: override training steps (default: per-model recipe).
        seed: training seed.
        corpus_tokens: size of the PG-like training stream.

    Returns:
        An inference :class:`Transformer`.  Identical arguments always give
        identical weights (in-process memo, then on-disk ``.npz``).
    """
    if name not in SIM_MODELS:
        raise KeyError(f"unknown sim model {name!r}; options: {sorted(SIM_MODELS)}")
    config = SIM_MODELS[name]
    recipe = dict(_RECIPES[name])
    if steps is not None:
        recipe["steps"] = steps
    key = (name, recipe["steps"], seed)
    if key in _MEMO:
        return _MEMO[key]
    path = cache_dir() / f"{name}-s{recipe['steps']}-seed{seed}.npz"
    weights = _load(path)
    if weights is None:
        tokens = pg_like(corpus_tokens, vocab_size=config.vocab_size, seed=seed)
        result = train(config, tokens, seed=seed, **recipe)
        weights = result.weights
        np.savez(path, **weights)
    model = Transformer(config, weights=weights)
    _MEMO[key] = model
    return model
