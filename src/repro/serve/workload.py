"""Serving workloads: the compared systems and the seeded arrival trace.

Every serving benchmark compares the same three systems.  Each is an
analytic system model, which charges the engine's clock and admits its
sessions, paired with the functional attention backend that decodes their
tokens.  The trace is a seeded Poisson stream of requests whose prompts
are laptop scale and whose charged prompt lengths are paper scale.
"""

from __future__ import annotations

from typing import Dict, List, Optional

import numpy as np

from repro.core.config import LongSightConfig
from repro.core.hybrid import LongSightAttention
from repro.llm.model import DenseBackend
from repro.serve.scheduler import ServeRequest
from repro.system.baselines import DenseGpuSystem, SlidingWindowGpuSystem
from repro.system.engine import LongSightSystem

#: The three systems every serve benchmark compares.
SYSTEM_NAMES = ("longsight", "dense", "sliding_window")


def default_systems(window: int = 1024, n_sink: int = 16) -> Dict[str, object]:
    """Paper-scale analytic system models, keyed by serve-bench name."""
    ls = LongSightConfig(window=window, n_sink=n_sink, top_k=1024,
                         use_itq=True)
    return {
        "longsight": LongSightSystem(ls),
        "dense": DenseGpuSystem(),
        "sliding_window": SlidingWindowGpuSystem(window=window,
                                                 n_sink=n_sink),
    }


def backend_factory(name: str, tiny_ls: LongSightConfig):
    """Per-session functional backend maker for system ``name``.

    A fresh backend per session keeps per-cache state (threshold caches,
    sign-rotation expectations) from leaking across sessions.
    """
    if name == "longsight":
        return lambda request: LongSightAttention(tiny_ls)
    if name == "dense":
        return lambda request: DenseBackend()
    if name == "sliding_window":
        # The hybrid at top_k = 0; one config object for every session,
        # so their decode rows stack.
        sliding = tiny_ls.replace(top_k=0)
        return lambda request: LongSightAttention(sliding)
    raise ValueError(f"unknown system: {name!r}")


def poisson_workload(n_requests: int, arrival_rate_per_s: float,
                     prompt_tokens: int, output_tokens: int,
                     vocab_size: int,
                     charged_prompt_tokens: Optional[int] = None,
                     seed: int = 0, prompt_jitter: float = 0.25,
                     ) -> List[ServeRequest]:
    """A seeded Poisson arrival trace with jittered prompt lengths.

    Every request carries ~``prompt_tokens`` prompt ids drawn from
    ``vocab_size`` for the engine to decode, and is charged a prompt of
    ``charged_prompt_tokens`` (or ``prompt_tokens`` when that is
    ``None``) under the same jitter.
    """
    rng = np.random.default_rng(seed)
    t = 0.0
    requests = []
    for i in range(n_requests):
        t += rng.exponential(1.0 / arrival_rate_per_s)
        jitter = 1.0 + prompt_jitter * (2 * rng.random() - 1)
        actual = max(1, int(prompt_tokens * jitter))
        charged = actual if charged_prompt_tokens is None \
            else max(1, int(charged_prompt_tokens * jitter))
        requests.append(ServeRequest(
            request_id=i, prompt=rng.integers(0, vocab_size, size=actual),
            max_new_tokens=output_tokens, arrival_s=t,
            charged_prompt_tokens=charged))
    return requests
