"""One KV store: per-layer K/V/sign arenas read through a row source.

The cache is the object LongSight splits in two: the most recent ``W``
entries stay "on the GPU" (dense window) while the remainder is offloaded to
DReX.  :meth:`KVCache.window_view` and :meth:`KVCache.offloaded_view` expose
exactly that split.

The *sign cache* is the software analogue of DReX's Key Sign Objects
(Section 5.1): one bit per key dimension, extracted (after the optional ITQ
rotation) exactly once when the key is appended and bit-packed into uint8
words.  Query-time filtering then reduces to XOR + popcount against this
store — no per-query re-quantization of the key history.

**Design.**  A layer's store (:class:`SessionLayerKV`) is three *arenas* —
keys, values and packed key signs (the Key Sign Objects beside their Key
Objects), each ``(n_kv_heads, arena_rows, width)`` — plus a *row source*:
``row_map`` (logical position -> arena row), ``contiguous`` (the map is one
ascending run), ``reserve(n_tokens)`` (make that many rows exist, or raise)
and ``prefix_signed_tokens`` (leading tokens whose sign rows a prefix
publisher already packed).  Exactly two exist, and they are all that
differs between the caches:

- **private** (:class:`LayerKV`, the layers of a plain :class:`KVCache`):
  arrays the layer owns, one run from row 0, doubled when full;
- **pool** (:class:`~repro.serve.paged_kv.PagedKVCache`): fixed-size blocks
  of arenas shared by every session of an engine, possibly non-contiguous
  or shared through the prefix index; growth may raise
  :class:`~repro.errors.PoolExhaustedError`, the preemption signal.

Append, sign packing and reads exist once.  Every read is
:meth:`SessionLayerKV._read`, for the logical positions asked for and no
others — a slice of a contiguous session is a zero-copy view, anything
else one ``take`` of the arena rows the map names:

- a prefill block asks for the whole context (``keys`` / ``values`` /
  ``packed_signs``);
- a decode row asks for the sinks + window panel (``window_view``), and in
  the long-context layout for a position range of signs, the filter's
  survivors among the keys and the top-k selections among the values
  (``key_rows`` / ``value_rows`` / ``sign_rows``) — what LongSight's PIM
  filter units, NMA and CXL link move, in that order (Sections 5–6).  It
  never copies a context it will not read.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List, Optional

import numpy as np

from repro.llm.config import ModelConfig

if TYPE_CHECKING:
    from repro.core.itq import ItqRotations


class _MappedRows:
    """One KV head's rows of an arena in a session's logical order.

    Answers the two reads the sparse stages make of an ndarray —
    ``[slice]`` and ``take(indices, axis=0)`` — by indexing the arena
    through the session's row map: only the rows asked for are touched.
    """

    __slots__ = ("_kv", "_arena", "_kv_head")

    def __init__(self, kv: "SessionLayerKV", arena: np.ndarray,
                 kv_head: int) -> None:
        self._kv, self._arena, self._kv_head = kv, arena, kv_head

    def __getitem__(self, positions: slice) -> np.ndarray:
        return self._kv._read(self._arena, positions, self._kv_head)

    def take(self, indices, axis: int = 0, mode: str = "raise") -> np.ndarray:
        return self._kv._read(self._arena, indices, self._kv_head, mode)


class SessionLayerKV:
    """One decoder layer's K/V/sign store: arenas plus a row source.

    Keys and values are stored as ``(n_kv_heads, arena_rows, head_dim)``
    arrays and read by logical position (module docstring).  When the sign
    cache is enabled, appending also packs the new keys' (rotated) sign
    bits — incrementally, exactly once per token.

    Args:
        session: the row source — the pooled session the layer belongs
            to; ``None`` when the layer is its own (:class:`LayerKV`).
        arenas: the ``(keys, values, packed signs)`` arrays to store in
            (``signs`` may be ``None`` for a store that is only read).
    """

    def __init__(self, session, arenas) -> None:
        self._session = session
        self._k, self._v, self._signs = arenas
        self.n_kv_heads, _, self.head_dim = self._k.shape
        self.dtype = self._k.dtype
        self._len = 0
        # sign cache state (disabled until enable_sign_cache is called)
        self._sign_rot: Optional[np.ndarray] = None
        self.sign_cache_enabled = False
        #: cumulative count of tokens whose signs have been packed; an
        #: incremental cache packs each token exactly once, so after any
        #: sequence of appends this equals the number of tokens seen since
        #: the cache was enabled (plus the backlog packed at enable time).
        self.signs_packed_total = 0

    @property
    def _source(self):
        # Looked up, not stored: a private layer is its own row source, and
        # a stored self-reference would keep its arrays alive until the
        # cycle collector runs instead of until the last reference drops.
        return self if self._session is None else self._session

    def __len__(self) -> int:
        return self._len

    # -- reads ----------------------------------------------------------------

    def _read(self, arena: np.ndarray, index, kv_head=slice(None),
              mode: str = "raise") -> np.ndarray:
        """Arena rows of the logical positions ``index`` — a slice of
        ``[0, len)``, or an index array taken under ``mode`` — for
        ``kv_head`` (default: all)."""
        source = self._source
        rows = source.row_map[:self._len]
        if not isinstance(index, slice):
            rows = rows.take(index, mode=mode)
        elif source.contiguous:
            start, stop, step = index.indices(self._len)
            base = int(rows[0]) if self._len else 0
            return arena[kv_head, base + start : base + stop : step]
        else:
            rows = rows[index]
        # ``take`` along the row axis of the C-contiguous arena moves whole
        # rows: ``arena[kv_head, rows]`` (advanced indexing) is 2-10x slower
        # here, and ``take`` on a strided view of a run copies the run first.
        return arena[kv_head].take(rows, axis=-2)

    def _gather(self, arena: np.ndarray) -> np.ndarray:
        """The whole context of every KV head, in logical order."""
        return self._read(arena, slice(None))

    @property
    def keys(self) -> np.ndarray:
        """``(n_kv_heads, n_tokens, head_dim)`` keys in logical order."""
        return self._gather(self._k)

    @property
    def values(self) -> np.ndarray:
        """``(n_kv_heads, n_tokens, head_dim)`` values in logical order."""
        return self._gather(self._v)

    @property
    def packed_signs(self) -> np.ndarray:
        """``(n_kv_heads, n_tokens, n_sign_bytes)`` packed rotated key signs.

        Raises if the sign cache has not been enabled.
        """
        return self._gather(self._sign_arena())

    def _sign_arena(self) -> np.ndarray:
        if not self.sign_cache_enabled:
            raise RuntimeError("sign cache not enabled; call enable_sign_cache")
        return self._signs

    # -- row readers (the sparse stages' reads) -------------------------------

    def _reader(self, arena: np.ndarray, kv_head: int):
        if self._source.contiguous:
            return self._read(arena, slice(None), kv_head)
        return _MappedRows(self, arena, kv_head)

    def key_rows(self, kv_head: int):
        """``kv_head``'s keys by logical position.

        A row reader answers ``[slice]`` and ``take(indices, axis=0)``: the
        stored rows themselves (a 2-D view) for a contiguous session, else
        :class:`_MappedRows` — so a kernel that reads survivors never asks
        any cache for the whole context.
        """
        return self._reader(self._k, kv_head)

    def value_rows(self, kv_head: int):
        """``kv_head``'s values by logical position (see :meth:`key_rows`)."""
        return self._reader(self._v, kv_head)

    def sign_rows(self, kv_head: int):
        """``kv_head``'s packed signs by logical position."""
        return self._reader(self._sign_arena(), kv_head)

    # -- writes ---------------------------------------------------------------

    def append(self, k: np.ndarray, v: np.ndarray) -> None:
        """Append keys/values for one or more tokens.

        ``k`` and ``v`` have shape ``(n_kv_heads, n_new, head_dim)``.
        """
        if k.shape != v.shape:
            raise ValueError("key and value shapes must match")
        if k.shape[0] != self.n_kv_heads or k.shape[2] != self.head_dim:
            raise ValueError(
                f"expected (n_kv_heads={self.n_kv_heads}, n, "
                f"head_dim={self.head_dim}), got {k.shape}")
        source = self._source
        stop = self._len + k.shape[1]
        source.reserve(stop)      # a private layer may rebind its arenas
        rows = source.row_map[self._len:stop]
        self._k[:, rows] = k
        self._v[:, rows] = v
        if self.sign_cache_enabled and len(rows):
            self._pack_rows(k.astype(self.dtype, copy=False), rows)
        self._len = stop

    def _pack_rows(self, keys: np.ndarray, rows: np.ndarray) -> None:
        """Pack the signs of ``keys`` — as stored — into arena ``rows``
        (exactly once per token)."""
        # Deferred import: repro.core.itq imports this module transitively.
        from repro.core.scf import pack_signs

        if self._sign_rot is not None:
            keys = np.matmul(keys, self._sign_rot)
        self._signs[:, rows] = pack_signs(keys)
        self.signs_packed_total += len(rows)

    def enable_sign_cache(self, rotations: Optional[np.ndarray] = None) -> None:
        """Start maintaining packed (rotated) key signs on every append.

        Args:
            rotations: optional ``(n_kv_heads, head_dim, head_dim)`` ITQ
                rotation stack applied before sign extraction (``None`` for
                raw signs).  Keys already in the cache are packed once as a
                backlog; subsequent appends pack only the new tokens.

        Backlog packing skips the leading run of attached shared-prefix
        tokens whose sign rows were already packed by the publishing
        session (the row source's ``prefix_signed_tokens``): re-packing
        them would write the same bytes — one sign-rotation bank per pool —
        but skipping keeps borrowers from touching shared arena rows at all.
        """
        if rotations is not None and rotations.shape != (
                self.n_kv_heads, self.head_dim, self.head_dim):
            raise ValueError("rotation stack shape mismatch")
        self._sign_rot = rotations
        self.sign_cache_enabled = True
        source = self._source
        backlog = slice(min(source.prefix_signed_tokens, self._len), self._len)
        if backlog.start < backlog.stop:
            self._pack_rows(self._read(self._k, backlog),
                            source.row_map[backlog])

    def free(self) -> None:
        """Forget the layer's tokens; the rows are the row source's to
        release."""
        self._len = 0


def new_arenas(n_kv_heads: int, rows: int, head_dim: int,
               dtype: np.dtype) -> List[np.ndarray]:
    """Zeroed ``[keys, values, packed signs]`` arenas of ``rows`` rows."""
    shape = (n_kv_heads, rows, head_dim)
    return [np.zeros(shape, dtype=dtype), np.zeros(shape, dtype=dtype),
            np.zeros((n_kv_heads, rows, (head_dim + 7) // 8), dtype=np.uint8)]


class LayerKV(SessionLayerKV):
    """Growable K/V store for one decoder layer: the private row source.

    The layer is its own row source (the row map is the identity, kept per
    capacity).  Appending amortizes reallocation by doubling capacity;
    :meth:`reserve` pre-allocates for a known prompt length so prefill never
    copies.  The sign arena (``head_dim / 8`` bytes per key) is allocated
    and grown with K and V.  Growth rebinds the arenas, so readers and
    views handed out before an append are stale after it.
    """

    contiguous = True
    prefix_signed_tokens = 0

    def __init__(self, n_kv_heads: int, head_dim: int,
                 initial_capacity: int = 64,
                 dtype: np.dtype = np.float32) -> None:
        capacity = max(1, initial_capacity)
        super().__init__(
            None, new_arenas(n_kv_heads, capacity, head_dim, dtype))
        self.row_map = np.arange(capacity, dtype=np.intp)
        #: number of capacity-growing reallocations performed so far
        self.n_grows = 0
        #: True once :meth:`free` released this layer's storage.
        self.freed = False

    def _reallocate(self, capacity: int) -> None:
        """Move the stored tokens into fresh arenas of ``capacity`` rows."""
        arenas = new_arenas(self.n_kv_heads, capacity, self.head_dim,
                            self.dtype)
        for new, old in zip(arenas, (self._k, self._v, self._signs)):
            new[:, : self._len] = old[:, : self._len]
        self._k, self._v, self._signs = arenas
        self.row_map = np.arange(capacity, dtype=np.intp)

    def reserve(self, capacity: int) -> None:
        """Pre-allocate for ``capacity`` tokens (one realloc at most)."""
        if self.freed:
            raise RuntimeError("LayerKV was freed; sessions must not append "
                               "after release")
        new_cap = len(self.row_map)
        if capacity > new_cap:
            while new_cap < capacity:
                new_cap *= 2
            self._reallocate(new_cap)
            self.n_grows += 1

    def free(self) -> None:
        """Release the K/V (and sign) storage of a finished session.

        Serving engines hold one cache per live session; without a release
        path a completed session keeps its whole arena alive until the
        Python object dies.  After ``free()`` the layer is empty and holds
        only minimal placeholders; any further append raises.  Idempotent.
        """
        if not self.freed:
            self._len = 0
            self._reallocate(1)
            self.freed = True


class KVCache:
    """KV cache spanning all decoder layers for one user/sequence.

    Storage dtype comes from ``config.kv_dtype`` (default float32 — halves
    memory traffic versus the float64 the simulator used historically).
    """

    def __init__(self, config: ModelConfig) -> None:
        self.config = config
        self.layers = self._new_layers()
        #: the ItqRotations bank the sign cache was enabled with (None when
        #: disabled or when raw signs are cached); identity lets backends
        #: check compatibility before consuming packed signs.
        self.sign_rotations: Optional["ItqRotations"] = None
        self.sign_cache_enabled = False
        #: True once :meth:`free` released the session's storage.
        self.freed = False

    def _new_layers(self) -> List[SessionLayerKV]:
        """One layer store per decoder layer, over this cache's row source
        (here: private, one per layer)."""
        cfg = self.config
        return [LayerKV(cfg.n_kv_heads, cfg.head_dim, dtype=cfg.kv_dtype)
                for _ in range(cfg.n_layers)]

    def __len__(self) -> int:
        """Number of cached tokens (identical across layers)."""
        return len(self.layers[0])

    def append(self, layer: int, k: np.ndarray, v: np.ndarray) -> None:
        self.layers[layer].append(k, v)

    def reserve(self, capacity: int) -> None:
        """Pre-allocate every layer for ``capacity`` tokens."""
        for layer in self.layers:
            layer.reserve(capacity)

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
        self.freed = True

    def enable_sign_cache(
            self, rotations: Optional["ItqRotations"] = None) -> None:
        """Enable the per-layer sign cache (idempotent for the same bank).

        Args:
            rotations: optional :class:`~repro.core.itq.ItqRotations` whose
                per-(layer, KV head) matrices are applied before packing.
        """
        if self.sign_cache_enabled and self.sign_rotations is rotations:
            return
        for i, layer in enumerate(self.layers):
            layer.enable_sign_cache(
                rotations.matrices[i] if rotations is not None else None)
        self.sign_rotations = rotations
        self.sign_cache_enabled = True

    def window_view(self, layer: int, window: int,
                    n_sink: int = 0) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(keys, values, positions) of the dense region: sinks + recent window.

        Mirrors what LongSight keeps in GPU HBM: ``n_sink`` attention-sink
        tokens from the start of the context plus the ``window`` most recent
        tokens.  Regions are clipped, never overlapping: if the context is
        shorter than ``n_sink + window`` everything is dense; past that the
        read is O(window), never a gather of the whole context.
        """
        kv = self.layers[layer]
        n = len(kv)
        if n <= n_sink + window:
            return kv.keys, kv.values, np.arange(n)
        pos = np.concatenate([np.arange(n_sink), np.arange(n - window, n)])
        return kv._read(kv._k, pos), kv._read(kv._v, pos), pos

    def offloaded_view(self, layer: int, window: int,
                       n_sink: int = 0) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(keys, values, positions) of the sparse region offloaded to DReX.

        Complement of :meth:`window_view`: tokens that are neither sinks nor
        inside the recent window.  Empty if the context fits densely.
        """
        kv = self.layers[layer]
        span = slice(n_sink, max(len(kv) - window, n_sink))
        return (kv._read(kv._k, span), kv._read(kv._v, span),
                np.arange(span.start, span.stop))
