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
        prefilter: which cheap candidate pre-filter backs the sparse
            region: ``"scf"`` (sign-concordance, the paper's exact-recall
            mechanism) or ``"antidiag"`` (XAttention-style antidiagonal
            block scoring — approximate, see
            :mod:`repro.core.antidiag`).  Resolved by
            :func:`repro.core.hybrid.make_backend`.
        prefill_tile: key-tile length of the block prefill kernel
            (:meth:`repro.core.hybrid.LongSightAttention._forward_block`).
            The sparse span streams keys and packed signs this many
            columns at a time, which bounds the kernel's count and score
            temporaries; it never changes which keys are selected.  0 runs
            the whole span as one tile.
        antidiag_block: key-block granularity of the antidiagonal scorer.
        antidiag_stride: antidiagonal sampling stride ``S`` (the scorer
            sums scores along every ``S``-th antidiagonal of each block).
        antidiag_tau: cumulative softmax mass the selected blocks must
            reach (XAttention's threshold parameter).
        antidiag_max_blocks: hard cap on selected sparse blocks per query
            block (bounds worst-case cost).
    """

    window: int = 1024
    n_sink: int = 16
    top_k: int = 1024
    thresholds: ThresholdLike = 0
    use_itq: bool = False
    per_q_head_thresholds: bool = False
    prefilter: str = "scf"
    prefill_tile: int = 4096
    antidiag_block: int = 64
    antidiag_stride: int = 8
    antidiag_tau: float = 0.9
    antidiag_max_blocks: int = 64

    MAX_HARDWARE_TOP_K = 1024

    def __post_init__(self) -> None:
        if self.window < 1:
            raise ValueError("window must be >= 1 (queries must see themselves)")
        if self.n_sink < 0:
            raise ValueError("n_sink must be >= 0")
        if self.top_k < 0:
            raise ValueError("top_k must be >= 0")
        if self.prefilter not in ("scf", "antidiag"):
            raise ValueError("prefilter must be 'scf' or 'antidiag'")
        if self.prefill_tile < 0:
            raise ValueError("prefill_tile must be >= 0 (0 = one tile)")
        if self.antidiag_block < 1 or self.antidiag_stride < 1:
            raise ValueError("antidiag block/stride must be >= 1")
        if self.antidiag_stride > self.antidiag_block:
            raise ValueError("antidiag_stride must not exceed antidiag_block")
        if self.antidiag_block % self.antidiag_stride != 0:
            raise ValueError("antidiag_block must be a multiple of "
                             "antidiag_stride")
        if not 0.0 < self.antidiag_tau <= 1.0:
            raise ValueError("antidiag_tau must be in (0, 1]")
        if self.antidiag_max_blocks < 1:
            raise ValueError("antidiag_max_blocks must be >= 1")

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
