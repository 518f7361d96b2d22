"""Configuration for LongSight's hybrid attention."""

from __future__ import annotations

import dataclasses
from typing import Optional, Union

import numpy as np

from repro.llm.config import ModelConfig

ThresholdLike = Union[int, float, np.ndarray]

#: Quality level 1's multiplier on the backend's ``top_k``.
TOP_K_SCALE = 0.5
#: Quality level 2's increment on the SCF sign-agreement threshold(s).
THRESHOLD_BUMP = 2


@dataclasses.dataclass(frozen=True)
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

    A config is a frozen value: ``thresholds`` is stored as a read-only
    float64 array, and configs of equal fields are equal and hash alike,
    so sessions whose backends were built from distinct but equal configs
    share one decode call.
    """

    window: int = 1024
    n_sink: int = 16
    top_k: int = 1024
    thresholds: ThresholdLike = dataclasses.field(default=0, compare=False)
    use_itq: bool = False
    per_q_head_thresholds: bool = False
    #: ``thresholds`` by value — what equality and hash compare of it.
    _thresholds_value: tuple = dataclasses.field(init=False, repr=False)

    def __post_init__(self) -> None:
        if self.window < 1:
            raise ValueError("window must be >= 1 (queries must see themselves)")
        if self.n_sink < 0:
            raise ValueError("n_sink must be >= 0")
        if self.top_k < 0:
            raise ValueError("top_k must be >= 0")
        thresholds = np.array(self.thresholds, dtype=np.float64)
        if thresholds.ndim > 2:
            raise ValueError(f"thresholds of shape {thresholds.shape} have "
                             "more than the two axes (layer, head)")
        thresholds.flags.writeable = False
        object.__setattr__(self, "thresholds", thresholds)
        object.__setattr__(self, "_thresholds_value",
                           (thresholds.shape, thresholds.tobytes()))

    def check_model(self, model: ModelConfig) -> None:
        """Raise ``ValueError`` unless ``thresholds`` broadcasts to the
        model's ``(n_layers, heads)`` — query heads with
        ``per_q_head_thresholds``, else KV heads."""
        self.check_heads(model.n_q_heads, model.n_kv_heads, model.n_layers)

    def check_heads(self, n_q_heads: int, n_kv_heads: int,
                    n_layers: Optional[int] = None) -> None:
        """:meth:`check_model` over head counts: with no ``n_layers`` (a
        stateless call, which knows no layer count) the head axis alone."""
        heads = n_q_heads if self.per_q_head_thresholds else n_kv_heads
        want, axes = ((heads,), "(heads,)") if n_layers is None \
            else ((n_layers, heads), "(n_layers, heads)")
        shape = self.thresholds.shape
        if any(n not in (1, w) for n, w in zip(shape[::-1], want[::-1])):
            raise ValueError(f"thresholds of shape {shape} do not broadcast "
                             f"to {axes} = {want}")

    def check_arrays(self, q, k, v) -> None:
        """A stateless forward's arrays: keys and values of one shape, no
        more query rows than context rows (the queries are the context's
        last rows), and :meth:`check_heads` over their head counts."""
        if k.shape != v.shape:
            raise ValueError(f"keys of shape {k.shape} and values of shape "
                             f"{v.shape} differ")
        if q.shape[1] > k.shape[1]:
            raise ValueError(f"{q.shape[1]} query rows exceed the "
                             f"{k.shape[1]} context rows")
        self.check_heads(q.shape[0], k.shape[0])

    def threshold_for(self, layer: int, kv_head, q_head=None):
        """Resolve the SCF threshold of one (layer, head), or one per head
        for index arrays of heads, by broadcasting: an axis of length 1
        serves every layer or head.

        With ``per_q_head_thresholds`` the last axis indexes query heads
        (``q_head`` required); otherwise it indexes KV heads.
        """
        head = kv_head
        if self.per_q_head_thresholds:
            if q_head is None:
                raise ValueError("per_q_head_thresholds requires q_head")
            head = q_head
        t = self.thresholds
        index = (layer, head)[2 - t.ndim:]
        return t[tuple(i if n > 1 else 0 for i, n in zip(index, t.shape))]

    def replace(self, **kwargs) -> "LongSightConfig":
        """Return a copy with fields overridden."""
        return dataclasses.replace(self, **kwargs)


def level_config(config: LongSightConfig, level: int) -> LongSightConfig:
    """The config served at quality ``level`` (1-3) of base ``config``.

    The whole ladder: 1 shrinks ``top_k`` by ``TOP_K_SCALE`` (to at least
    1), 2 also raises the thresholds by ``THRESHOLD_BUMP``, 3 is ``top_k
    = 0`` — the dense floor, sinks + window only, which a dense pin
    reaches too.  A pure function of its arguments: configs are values,
    so equal bases give equal variants and their sessions stack without
    sharing a config object.
    """
    if level >= 3:
        return config.replace(top_k=0)
    changes = {"top_k": max(1, int(config.top_k * TOP_K_SCALE))}
    if level >= 2:
        changes["thresholds"] = config.thresholds + THRESHOLD_BUMP
    return config.replace(**changes)
