"""Per-layer, per-KV-head key/value cache with an incremental sign cache.

The cache is the object LongSight splits in two: the most recent ``W``
entries stay "on the GPU" (dense window) while the remainder is offloaded to
DReX.  :meth:`KVCache.window_view` and :meth:`KVCache.offloaded_view` expose
exactly that split.

The *sign cache* is the software analogue of DReX's Key Sign Objects
(Section 5.1): one bit per key dimension, extracted (after the optional ITQ
rotation) exactly once when the key is appended and bit-packed into uint8
words.  Query-time filtering then reduces to XOR + popcount against this
store — no per-query re-quantization of the key history.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

import numpy as np

from repro.llm.config import ModelConfig

if TYPE_CHECKING:
    from repro.core.itq import ItqRotations


class LayerKV:
    """Growable K/V store for one decoder layer.

    Keys and values are stored as ``(n_kv_heads, n_tokens, head_dim)``
    arrays.  Appending amortizes reallocation by doubling capacity;
    :meth:`reserve` pre-allocates for a known prompt length so prefill never
    copies.  When the sign cache is enabled, appending also packs the new
    keys' (rotated) sign bits — incrementally, exactly once per token.
    """

    def __init__(self, n_kv_heads: int, head_dim: int,
                 initial_capacity: int = 64,
                 dtype: np.dtype = np.float32) -> None:
        self.n_kv_heads = n_kv_heads
        self.head_dim = head_dim
        self.dtype = np.dtype(dtype)
        self._capacity = max(1, initial_capacity)
        self._len = 0
        self._k = np.zeros((n_kv_heads, self._capacity, head_dim), dtype=self.dtype)
        self._v = np.zeros((n_kv_heads, self._capacity, head_dim), dtype=self.dtype)
        #: number of capacity-growing reallocations performed so far
        self.n_grows = 0
        # sign cache state (disabled until enable_sign_cache is called)
        self._sign_rot: Optional[np.ndarray] = None
        self._signs: Optional[np.ndarray] = None
        self._sign_nbytes = (head_dim + 7) // 8
        #: cumulative count of tokens whose signs have been packed; an
        #: incremental cache packs each token exactly once, so after any
        #: sequence of appends this equals the number of tokens seen since
        #: the cache was enabled (plus the backlog packed at enable time).
        self.signs_packed_total = 0
        self._freed = False

    def __len__(self) -> int:
        return self._len

    @property
    def freed(self) -> bool:
        """True once :meth:`free` released this layer's storage."""
        return self._freed

    def free(self) -> None:
        """Release the K/V (and sign) storage of a finished session.

        Serving engines hold one cache per live session; without a release
        path a completed session keeps its whole arena alive until the
        Python object dies.  After ``free()`` the layer is empty and holds
        only minimal placeholders; any further append raises.  Idempotent.
        """
        if self._freed:
            return
        self._len = 0
        self._capacity = 1
        self._k = np.zeros((self.n_kv_heads, 1, self.head_dim),
                           dtype=self.dtype)
        self._v = np.zeros_like(self._k)
        if self._signs is not None:
            self._signs = np.zeros((self.n_kv_heads, 1, self._sign_nbytes),
                                   dtype=np.uint8)
        self._freed = True

    def _check_not_freed(self) -> None:
        if self._freed:
            raise RuntimeError("LayerKV was freed; sessions must not append "
                               "after release")

    def _grow(self, needed: int) -> None:
        new_cap = self._capacity
        while new_cap < needed:
            new_cap *= 2
        k = np.zeros((self.n_kv_heads, new_cap, self.head_dim), dtype=self.dtype)
        v = np.zeros_like(k)
        k[:, : self._len] = self._k[:, : self._len]
        v[:, : self._len] = self._v[:, : self._len]
        self._k, self._v, self._capacity = k, v, new_cap
        if self._signs is not None:
            signs = np.zeros((self.n_kv_heads, new_cap, self._sign_nbytes),
                             dtype=np.uint8)
            signs[:, : self._len] = self._signs[:, : self._len]
            self._signs = signs
        self.n_grows += 1

    def reserve(self, capacity: int) -> None:
        """Pre-allocate for ``capacity`` tokens (one realloc at most)."""
        self._check_not_freed()
        if capacity > self._capacity:
            self._grow(capacity)

    def append(self, k: np.ndarray, v: np.ndarray) -> None:
        """Append keys/values for one or more tokens.

        ``k`` and ``v`` have shape ``(n_kv_heads, n_new, head_dim)``.
        """
        self._check_not_freed()
        if k.shape != v.shape:
            raise ValueError("key and value shapes must match")
        if k.shape[0] != self.n_kv_heads or k.shape[2] != self.head_dim:
            raise ValueError(
                f"expected (n_kv_heads={self.n_kv_heads}, n, "
                f"head_dim={self.head_dim}), got {k.shape}"
            )
        n_new = k.shape[1]
        if self._len + n_new > self._capacity:
            self._grow(self._len + n_new)
        self._k[:, self._len : self._len + n_new] = k
        self._v[:, self._len : self._len + n_new] = v
        if self._signs is not None and n_new > 0:
            self._pack_range(self._len, self._len + n_new)
        self._len += n_new

    # -- sign cache -----------------------------------------------------------

    @property
    def sign_cache_enabled(self) -> bool:
        return self._signs is not None

    def enable_sign_cache(self, rotations: Optional[np.ndarray] = None) -> None:
        """Start maintaining packed (rotated) key signs on every append.

        Args:
            rotations: optional ``(n_kv_heads, head_dim, head_dim)`` ITQ
                rotation stack applied before sign extraction (``None`` for
                raw signs).  Keys already in the cache are packed once as a
                backlog; subsequent appends pack only the new tokens.
        """
        if rotations is not None and rotations.shape != (
                self.n_kv_heads, self.head_dim, self.head_dim):
            raise ValueError("rotation stack shape mismatch")
        self._sign_rot = rotations
        self._signs = np.zeros(
            (self.n_kv_heads, self._capacity, self._sign_nbytes), dtype=np.uint8)
        if self._len:
            self._pack_range(0, self._len)

    def _pack_range(self, start: int, stop: int) -> None:
        """Pack signs for stored keys in ``[start, stop)`` (exactly once)."""
        # Deferred import: repro.core.itq imports this module transitively.
        from repro.core.scf import pack_signs

        keys = self._k[:, start:stop]
        if self._sign_rot is not None:
            keys = np.matmul(keys, self._sign_rot)
        self._signs[:, start:stop] = pack_signs(keys)
        self.signs_packed_total += stop - start

    @property
    def packed_signs(self) -> np.ndarray:
        """``(n_kv_heads, n_tokens, n_sign_bytes)`` packed rotated key signs.

        Raises if the sign cache has not been enabled.
        """
        if self._signs is None:
            raise RuntimeError("sign cache not enabled; call enable_sign_cache")
        return self._signs[:, : self._len]

    # -- views ----------------------------------------------------------------

    @property
    def keys(self) -> np.ndarray:
        """``(n_kv_heads, n_tokens, head_dim)`` view of all keys."""
        return self._k[:, : self._len]

    @property
    def values(self) -> np.ndarray:
        """``(n_kv_heads, n_tokens, head_dim)`` view of all values."""
        return self._v[:, : self._len]

    # -- row readers (the sparse stages' reads) -------------------------------

    def key_rows(self, kv_head: int) -> np.ndarray:
        """``kv_head``'s keys by logical position.

        A row reader answers ``[slice]`` and ``take(indices, axis=0)``.
        Here that is the stored array itself; a paged cache answers the
        same two reads through its row map (``PagedLayerKV``), so a kernel
        that reads survivors never asks any cache for the whole context.
        """
        return self._k[kv_head, : self._len]

    def value_rows(self, kv_head: int) -> np.ndarray:
        """``kv_head``'s values by logical position (see :meth:`key_rows`)."""
        return self._v[kv_head, : self._len]

    def sign_rows(self, kv_head: int) -> np.ndarray:
        """``kv_head``'s packed signs by logical position."""
        return self.packed_signs[kv_head]


class KVCache:
    """KV cache spanning all decoder layers for one user/sequence.

    Storage dtype comes from ``config.kv_dtype`` (default float32 — halves
    memory traffic versus the float64 the simulator used historically).
    """

    def __init__(self, config: ModelConfig) -> None:
        self.config = config
        dtype = np.dtype(config.kv_dtype)
        self.layers = [
            LayerKV(config.n_kv_heads, config.head_dim, dtype=dtype)
            for _ in range(config.n_layers)
        ]
        #: the ItqRotations bank the sign cache was enabled with (None when
        #: disabled or when raw signs are cached); identity lets backends
        #: check compatibility before consuming packed signs.
        self.sign_rotations: Optional["ItqRotations"] = None
        self._sign_cache_enabled = False

    def __len__(self) -> int:
        """Number of cached tokens (identical across layers)."""
        return len(self.layers[0])

    def append(self, layer: int, k: np.ndarray, v: np.ndarray) -> None:
        self.layers[layer].append(k, v)

    def reserve(self, capacity: int) -> None:
        """Pre-allocate every layer for ``capacity`` tokens."""
        for layer in self.layers:
            layer.reserve(capacity)

    @property
    def freed(self) -> bool:
        """True once :meth:`free` released every layer's storage."""
        return all(layer.freed for layer in self.layers)

    def free(self) -> None:
        """Release all per-layer storage of a finished session (idempotent).

        The session-release half of the cache lifecycle: serving engines
        call this when a request completes so the memory (or, for pooled
        subclasses, the arena blocks) returns immediately instead of
        waiting for garbage collection.  A freed cache must not be
        appended to again.
        """
        for layer in self.layers:
            layer.free()

    @property
    def sign_cache_enabled(self) -> bool:
        return self._sign_cache_enabled

    def enable_sign_cache(
            self, rotations: Optional["ItqRotations"] = None) -> None:
        """Enable the per-layer sign cache (idempotent for the same bank).

        Args:
            rotations: optional :class:`~repro.core.itq.ItqRotations` whose
                per-(layer, KV head) matrices are applied before packing.
        """
        if self._sign_cache_enabled and self.sign_rotations is rotations:
            return
        for i, layer in enumerate(self.layers):
            layer.enable_sign_cache(
                rotations.matrices[i] if rotations is not None else None)
        self.sign_rotations = rotations
        self._sign_cache_enabled = True

    def window_view(self, layer: int, window: int,
                    n_sink: int = 0) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(keys, values, positions) of the dense region: sinks + recent window.

        Mirrors what LongSight keeps in GPU HBM: ``n_sink`` attention-sink
        tokens from the start of the context plus the ``window`` most recent
        tokens.  Regions are clipped, never overlapping: if the context is
        shorter than ``n_sink + window`` everything is dense.
        """
        n = len(self.layers[layer])
        kv = self.layers[layer]
        if n <= n_sink + window:
            pos = np.arange(n)
            return kv.keys, kv.values, pos
        sink_pos = np.arange(n_sink)
        recent_pos = np.arange(n - window, n)
        pos = np.concatenate([sink_pos, recent_pos])
        k = kv.keys[:, pos]
        v = kv.values[:, pos]
        return k, v, pos

    def offloaded_view(self, layer: int, window: int,
                       n_sink: int = 0) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(keys, values, positions) of the sparse region offloaded to DReX.

        Complement of :meth:`window_view`: tokens that are neither sinks nor
        inside the recent window.  Empty if the context fits densely.
        """
        n = len(self.layers[layer])
        kv = self.layers[layer]
        if n <= n_sink + window:
            empty_k = kv.keys[:, :0]
            return empty_k, empty_k.copy(), np.arange(0)
        pos = np.arange(n_sink, n - window)
        return kv.keys[:, pos], kv.values[:, pos], pos
