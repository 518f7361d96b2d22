"""Configuration for LongSight's hybrid attention."""

from __future__ import annotations

import dataclasses
from typing import Optional, Union

import numpy as np

ThresholdLike = Union[int, float, np.ndarray]


@dataclasses.dataclass
class LongSightConfig:
    """Hyper-parameters of the hybrid dense–sparse attention algorithm.

    Defaults follow Section 8.1.3 of the paper: a 1,024-token dense sliding
    window, 16 attention-sink tokens, top-k of 1,024, and per-KV-head SCF
    thresholds (0 disables filtering).

    Attributes:
        window: dense sliding-window size ``W`` (most recent tokens kept on
            the GPU).
        n_sink: attention-sink tokens from the start of the context, always
            attended densely.
        top_k: maximum sparse keys/values retrieved per query head
            (hardware cap: 1,024).
        thresholds: SCF threshold(s); scalar, or an array broadcastable to
            ``(n_layers, n_kv_heads)`` — or ``(n_layers, n_q_heads)`` when
            ``per_q_head_thresholds`` is set.  A key passes when at least
            ``threshold`` of its sign bits agree with the query's.
        use_itq: whether to apply learned ITQ rotations before sign
            extraction (requires rotations to be fitted / supplied).
        per_q_head_thresholds: resolve thresholds per *query* head instead
            of per KV head.  The paper found this finer granularity
            "introduced instability in our threshold tuning algorithm"
            (Section 5.1) and settled on per-KV-head; both are supported
            here so that finding can be reproduced
            (``benchmarks/test_ablation_granularity.py``).

    Every field is an algorithm knob.  How the attention kernel sizes its
    work — key tiles, head slabs, gathered columns — is derived from the
    query count and the context (``repro.core.hybrid``), not configured.
    """

    window: int = 1024
    n_sink: int = 16
    top_k: int = 1024
    thresholds: ThresholdLike = 0
    use_itq: bool = False
    per_q_head_thresholds: bool = False

    def __post_init__(self) -> None:
        if self.window < 1:
            raise ValueError("window must be >= 1 (queries must see themselves)")
        if self.n_sink < 0:
            raise ValueError("n_sink must be >= 0")
        if self.top_k < 0:
            raise ValueError("top_k must be >= 0")

    def threshold_for(self, layer: int, kv_head: int,
                      q_head: Optional[int] = None) -> float:
        """Resolve the SCF threshold for one (layer, head).

        With ``per_q_head_thresholds`` the last axis indexes query heads
        (``q_head`` required); otherwise it indexes KV heads.
        """
        head = kv_head
        if self.per_q_head_thresholds:
            if q_head is None:
                raise ValueError("per_q_head_thresholds requires q_head")
            head = q_head
        t = np.asarray(self.thresholds)
        if t.ndim == 0:
            return float(t)
        if t.ndim == 1:
            return float(t[head])
        return float(t[layer, head])

    def replace(self, **kwargs) -> "LongSightConfig":
        """Return a copy with fields overridden."""
        return dataclasses.replace(self, **kwargs)
