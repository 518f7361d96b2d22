"""Paged KV memory: a block-granular pool shared by every live session.

The serving engine cannot afford one doubling-and-copying numpy arena per
session (:class:`~repro.llm.kv_cache.LayerKV`): admission/completion churn
would fragment the heap and every admission would pay fresh allocations.
Instead the pool preallocates **one arena per decoder layer** and hands
out fixed-size *blocks* of token slots, vLLM-PagedAttention style:

- a block is ``block_tokens`` rows, shared across every layer's arena (the
  same block id addresses the same rows of layer 0's and layer N's K, V,
  and sign arenas — all layers of a session grow in lockstep, so one free
  list suffices);
- sessions own a *logical → arena row* mapping; completed sessions return
  their blocks to the free list (LIFO, so hot arena rows are reused);
- sign-cache bytes are paged **alongside K/V** in a parallel uint8 arena,
  so the incremental sign store survives paging exactly like the keys it
  summarizes (the software Key Sign Objects stay with their Key Objects).

:class:`PagedKVCache` presents the same duck-typed interface the
transformer and the attention backends consume (``append``, ``reserve``,
``layers[i].keys/values/packed_signs``, ``window_view``, the per-head row
readers ``key_rows`` / ``value_rows`` / ``sign_rows``, ...), so a paged
session is a drop-in replacement for a private :class:`KVCache`.  Every
read is one indexing of the arena through the session's row map, for the
logical positions asked for and no others (``PagedLayerKV._read``):

- a prefill block asks for the whole context (``keys`` / ``values`` /
  ``packed_signs``: a gathered copy, or a zero-copy slice when the
  session's blocks happen to be contiguous — the common case right after
  admission);
- a decode row asks for the sinks + window panel (``window_view``), and in
  the long-context layout for a position range of signs, the filter's
  survivors among the keys and the top-k selections among the values —
  what LongSight's PIM filter units, NMA and CXL link move, in that order
  (Sections 5–6).  It never copies a context it will not read.

**Prefix caching** (``prefix_caching=True``): *full* prompt blocks are
content-hashed with a chained blake2b digest (``digest_i =
H(digest_{i-1} || tokens_of_block_i)``, so a block's key commits to the
entire prefix before it, not just its own tokens) and registered in a
pool-level index.  A new session whose prompt starts with an indexed
prefix *attaches* those blocks instead of re-prefilling them: the shared
block ids are spliced into its row map and the per-block refcount rises.
Shared blocks are copy-on-write in the only sense that matters for
fixed-size pages: they are always **full**, so no append can ever write
into one — divergence lands in freshly allocated private blocks — and a
block returns to the LIFO free list only when the *last* referencing
session frees it.  Sharing K/V across sessions is bit-exact only when
every session would have produced the same arena bytes, which holds
when one pool serves one backend family (same weights, same attention
numerics, same sign-rotation bank); mixed-family pools (e.g. dense
fallback sessions, fault-injecting backends) must not attach or publish
— the serving engine enforces this for pinned-dense sessions.
"""

from __future__ import annotations

import dataclasses
import hashlib
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence

import numpy as np

from repro.errors import PoolExhaustedError
from repro.llm.config import ModelConfig
from repro.obs import resolve_obs

if TYPE_CHECKING:
    from repro.core.itq import ItqRotations
    from repro.obs import Obs


@dataclasses.dataclass
class _PrefixEntry:
    """One shared (refcounted) full block in the pool's prefix index."""

    key: bytes          # chained digest of the prefix ending at this block
    block: int          # arena block id holding the tokens' K/V/signs
    refcount: int       # live sessions referencing the block
    signs_packed: bool  # sign arena rows for this block are valid


def _chain_digest(prev: bytes, tokens: np.ndarray) -> bytes:
    """Chained content hash of one full block of prompt tokens."""
    h = hashlib.blake2b(prev, digest_size=16)
    h.update(np.ascontiguousarray(tokens, dtype=np.int64).tobytes())
    return h.digest()


class PagedKVPool:
    """Preallocated block-granular K/V/sign arenas for all sessions.

    Args:
        config: model architecture (layer count, KV heads, head dim, dtype).
        n_blocks: total blocks in the arena.
        block_tokens: token slots per block.
        prefix_caching: share content-identical full prompt blocks across
            sessions via refcounts (see module docstring for validity).
        obs: optional observability bundle; prefix hit/miss counters and
            the shared-block gauge report through it.

    The pool never allocates after construction; :class:`PagedKVCache`
    growth only moves block ids between the free list and sessions.
    """

    def __init__(self, config: ModelConfig, n_blocks: int,
                 block_tokens: int = 16, prefix_caching: bool = False,
                 obs: Optional["Obs"] = None) -> None:
        if n_blocks < 1 or block_tokens < 1:
            raise ValueError("need at least one block of at least one token")
        self.config = config
        self.n_blocks = n_blocks
        self.block_tokens = block_tokens
        self.prefix_caching = prefix_caching
        self.obs = resolve_obs(obs)
        dtype = np.dtype(config.kv_dtype)
        rows = n_blocks * block_tokens
        shape = (config.n_kv_heads, rows, config.head_dim)
        self.sign_nbytes = (config.head_dim + 7) // 8
        #: per-layer arenas; indexed [layer][kv_head, arena_row, dim]
        self.k_arenas = [np.zeros(shape, dtype=dtype)
                        for _ in range(config.n_layers)]
        self.v_arenas = [np.zeros(shape, dtype=dtype)
                        for _ in range(config.n_layers)]
        self.sign_arenas = [
            np.zeros((config.n_kv_heads, rows, self.sign_nbytes),
                     dtype=np.uint8)
            for _ in range(config.n_layers)]
        # LIFO free list: most recently released blocks are reused first.
        self._free: List[int] = list(range(n_blocks - 1, -1, -1))
        #: chained digest -> shared entry (prefix caching only).
        self._prefix_index: Dict[bytes, _PrefixEntry] = {}
        # -- telemetry --
        self.total_allocated = 0
        self.total_released = 0
        self.high_watermark = 0
        self.prefix_hits = 0
        self.prefix_misses = 0
        self.shared_blocks_peak = 0

    # -- accounting -----------------------------------------------------------

    @property
    def n_free(self) -> int:
        return len(self._free)

    @property
    def n_used(self) -> int:
        return self.n_blocks - len(self._free)

    def blocks_for_tokens(self, n_tokens: int) -> int:
        """Blocks needed to hold ``n_tokens`` token slots."""
        return -(-max(0, n_tokens) // self.block_tokens)

    def can_fit_tokens(self, n_tokens: int) -> bool:
        """Would a fresh session of ``n_tokens`` fit right now?"""
        return self.blocks_for_tokens(n_tokens) <= self.n_free

    # -- block lifecycle ------------------------------------------------------

    def allocate(self, n: int) -> List[int]:
        """Take ``n`` blocks off the free list (all-or-nothing)."""
        if n < 0:
            raise ValueError("cannot allocate a negative block count")
        if n > len(self._free):
            cfg = self.config
            raise PoolExhaustedError(
                f"paged KV pool exhausted: need {n} blocks, "
                f"{len(self._free)} of {self.n_blocks} free "
                f"({self.n_used} occupied x {cfg.n_layers} layers at "
                f"{self.block_tokens} tokens/block, "
                f"{self.shared_blocks} shared prefix blocks, "
                f"free-list depth {len(self._free)}, "
                f"high watermark {self.high_watermark})",
                need=n, free=len(self._free), total=self.n_blocks,
                block_tokens=self.block_tokens, n_layers=cfg.n_layers,
                shared_prefix_blocks=self.shared_blocks,
                high_watermark=self.high_watermark)
        taken = [self._free.pop() for _ in range(n)]
        self.total_allocated += n
        self.high_watermark = max(self.high_watermark, self.n_used)
        return taken

    def release(self, blocks: List[int]) -> None:
        """Return blocks to the free list (session completion).

        All-or-nothing: a block outside the arena, already free, or named
        twice in ``blocks`` raises before the free list changes.
        """
        free = set(self._free)
        for block in blocks:
            if not 0 <= block < self.n_blocks:
                raise ValueError(f"block id {block} outside the arena")
            if block in free:
                raise ValueError(f"double free of block {block}")
            free.add(block)
        self._free.extend(blocks)
        self.total_released += len(blocks)

    def new_cache(self) -> "PagedKVCache":
        """A fresh (empty) session cache backed by this pool."""
        return PagedKVCache(self)

    # -- prefix index ---------------------------------------------------------

    @property
    def shared_blocks(self) -> int:
        """Distinct blocks currently registered in the prefix index."""
        return len(self._prefix_index)

    def _note_shared_blocks(self) -> None:
        n = len(self._prefix_index)
        if n > self.shared_blocks_peak:
            self.shared_blocks_peak = n
        self.obs.metrics.gauge("serve.prefix.shared_blocks").set(n)

    def longest_prefix_tokens(self, tokens: Sequence[int]) -> int:
        """Cached-prefix length (tokens) the index holds for this prompt.

        A metric-free probe: walks the chained digests over the prompt's
        full blocks without touching refcounts or hit/miss counters, so a
        router can score worker locality without perturbing the stats.
        """
        if not self.prefix_caching:
            return 0
        arr = np.asarray(tokens, dtype=np.int64)
        bt = self.block_tokens
        digest = b""
        hit = 0
        for start in range(0, (len(arr) // bt) * bt, bt):
            digest = _chain_digest(digest, arr[start:start + bt])
            if digest not in self._prefix_index:
                break
            hit += bt
        return hit


class _MappedRows:
    """One KV head's rows of an arena in a session's logical order.

    Answers the two reads the sparse stages make of a plain cache's
    ndarray — ``[slice]`` and ``take(indices, axis=0)`` — by indexing the
    arena through the session's row map: only the rows asked for are
    touched.
    """

    __slots__ = ("_kv", "_arena", "_kv_head")

    def __init__(self, kv: "PagedLayerKV", arena: np.ndarray,
                 kv_head: int) -> None:
        self._kv, self._arena, self._kv_head = kv, arena, kv_head

    def __getitem__(self, positions: slice) -> np.ndarray:
        return self._kv._read(self._arena, positions, self._kv_head)

    def take(self, indices, axis: int = 0, mode: str = "raise") -> np.ndarray:
        return self._kv._read(self._arena, indices, self._kv_head, mode)


class PagedLayerKV:
    """One layer's view of a paged session: the ``LayerKV`` consumer API.

    Every read indexes the shared arena through the session's row map
    (:meth:`_read`): the positions asked for, never more.  ``keys`` /
    ``values`` / ``packed_signs`` ask for the whole context (a prefill
    block's read); the decode routine asks for the sinks + window panel
    (``PagedKVCache.window_view``), a position range of signs and the
    survivor / selected rows of one KV head (:meth:`key_rows`,
    :meth:`value_rows`, :meth:`sign_rows`).  A slice of a session whose
    blocks are contiguous is a zero-copy view.
    """

    def __init__(self, cache: "PagedKVCache", layer: int) -> None:
        self._cache = cache
        self._layer = layer
        pool = cache.pool
        self.n_kv_heads = pool.config.n_kv_heads
        self.head_dim = pool.config.head_dim
        self.dtype = np.dtype(pool.config.kv_dtype)
        self._k = pool.k_arenas[layer]
        self._v = pool.v_arenas[layer]
        self._signs = pool.sign_arenas[layer]
        self._sign_rot: Optional[np.ndarray] = None
        self._sign_enabled = False
        self._len = 0
        self.signs_packed_total = 0

    def __len__(self) -> int:
        return self._len

    # -- reads ----------------------------------------------------------------

    def _read(self, arena: np.ndarray, index, kv_head=slice(None),
              mode: str = "raise") -> np.ndarray:
        """Arena rows of the logical positions ``index`` — a slice of
        ``[0, len)``, or an index array taken under ``mode`` — for
        ``kv_head`` (default: all)."""
        rows = self._cache.rows(self._len)
        if not isinstance(index, slice):
            rows = rows.take(index, mode=mode)
        elif self._cache.contiguous:
            start, stop, step = index.indices(self._len)
            base = int(rows[0]) if self._len else 0
            return arena[kv_head, base + start : base + stop : step]
        else:
            rows = rows[index]
        # ``take`` along the row axis moves whole rows; ``arena[kv_head,
        # rows]`` (advanced indexing) is 2-10x slower on these shapes.
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
    def sign_cache_enabled(self) -> bool:
        return self._sign_enabled

    @property
    def packed_signs(self) -> np.ndarray:
        """``(n_kv_heads, n_tokens, sign_nbytes)`` packed rotated signs."""
        self._check_signs()
        return self._gather(self._signs)

    def _check_signs(self) -> None:
        if not self._sign_enabled:
            raise RuntimeError("sign cache not enabled; call enable_sign_cache")

    def key_rows(self, kv_head: int) -> _MappedRows:
        """``kv_head``'s keys by logical position (see ``LayerKV``)."""
        return _MappedRows(self, self._k, kv_head)

    def value_rows(self, kv_head: int) -> _MappedRows:
        return _MappedRows(self, self._v, kv_head)

    def sign_rows(self, kv_head: int) -> _MappedRows:
        self._check_signs()
        return _MappedRows(self, self._signs, kv_head)

    # -- writes ---------------------------------------------------------------

    def append(self, k: np.ndarray, v: np.ndarray) -> None:
        """Append keys/values for one or more tokens into pool blocks."""
        if k.shape != v.shape:
            raise ValueError("key and value shapes must match")
        if k.shape[0] != self.n_kv_heads or k.shape[2] != self.head_dim:
            raise ValueError(
                f"expected (n_kv_heads={self.n_kv_heads}, n, "
                f"head_dim={self.head_dim}), got {k.shape}")
        n_new = k.shape[1]
        if n_new == 0:
            return
        self._cache.ensure_tokens(self._len + n_new)
        rows = self._cache.rows_range(self._len, self._len + n_new)
        self._k[:, rows] = k
        self._v[:, rows] = v
        if self._sign_enabled:
            self._pack_rows(k, rows)
        self._len += n_new

    def _pack_rows(self, k: np.ndarray, rows: np.ndarray) -> None:
        from repro.core.scf import pack_signs

        keys = k if self._sign_rot is None else np.matmul(k, self._sign_rot)
        self._signs[:, rows] = pack_signs(keys)
        self.signs_packed_total += len(rows)

    def enable_sign_cache(self, rotations: Optional[np.ndarray] = None) -> None:
        """Start packing (rotated) key signs on append; packs the backlog.

        Backlog packing skips the leading run of attached shared-prefix
        tokens whose sign rows were already packed by the publishing
        session (``cache.prefix_signed_tokens``): re-packing them would
        write the same bytes — one sign-rotation bank per pool — but
        skipping keeps borrowers from touching shared arena rows at all.
        """
        if rotations is not None and rotations.shape != (
                self.n_kv_heads, self.head_dim, self.head_dim):
            raise ValueError("rotation stack shape mismatch")
        self._sign_rot = rotations
        self._sign_enabled = True
        start = min(self._cache.prefix_signed_tokens, self._len)
        if self._len > start:
            rows = self._cache.rows_range(start, self._len)
            self._pack_rows(self._k[:, rows], rows)

    def free(self) -> None:
        """Per-layer release is a no-op: the cache owns the shared blocks."""
        self._len = 0


class PagedKVCache:
    """A session's KV cache backed by pool blocks (``KVCache`` interface).

    All layers share one block list (they grow in lockstep), so the block
    cost of a session is ``ceil(tokens / block_tokens)`` — paid once, not
    per layer.  :meth:`free` returns every block to the pool; the freed
    cache must not be appended to again.
    """

    def __init__(self, pool: PagedKVPool) -> None:
        self.pool = pool
        self.config = pool.config
        self.layers = [PagedLayerKV(self, i)
                       for i in range(pool.config.n_layers)]
        self._blocks: List[int] = []
        #: logical token position -> arena row, grown block-by-block.
        self._rows = np.empty(0, dtype=np.intp)
        self.contiguous = True
        self.sign_rotations: Optional["ItqRotations"] = None
        self._sign_cache_enabled = False
        self._freed = False
        # -- prefix-caching state --
        #: refcounted entry per shared block this session references
        #: (borrowed via attach_prefix or published by this session).
        self._entry_by_block: Dict[int, _PrefixEntry] = {}
        #: chained digest of the last hashed full block (publish resumes
        #: the chain here), and how many prompt tokens are hashed so far.
        self._prefix_digest = b""
        self._published_tokens = 0
        #: leading tokens whose shared sign rows are already packed —
        #: enable_sign_cache starts its backlog pack after this run.
        self.prefix_signed_tokens = 0

    def __len__(self) -> int:
        """Number of cached tokens (identical across layers)."""
        return len(self.layers[0])

    @property
    def n_blocks(self) -> int:
        return len(self._blocks)

    @property
    def block_ids(self) -> List[int]:
        return list(self._blocks)

    @property
    def freed(self) -> bool:
        return self._freed

    # -- row mapping ----------------------------------------------------------

    def rows(self, n_tokens: int) -> np.ndarray:
        """Arena rows of logical tokens ``[0, n_tokens)``."""
        return self._rows[:n_tokens]

    def rows_range(self, start: int, stop: int) -> np.ndarray:
        """Arena rows of logical tokens ``[start, stop)``."""
        return self._rows[start:stop]

    def ensure_tokens(self, n_tokens: int) -> None:
        """Grow the block list to cover ``n_tokens`` logical slots.

        Raises :class:`~repro.errors.PoolExhaustedError` (leaving the
        session's existing blocks intact) when the pool cannot supply the
        growth — the engine's preemption signal.
        """
        if self._freed:
            raise RuntimeError("PagedKVCache was freed; sessions must not "
                               "append after release")
        need = self.pool.blocks_for_tokens(n_tokens) - len(self._blocks)
        if need <= 0:
            return
        new_blocks = self.pool.allocate(need)
        bt = self.pool.block_tokens
        for block in new_blocks:
            if self._blocks and block != self._blocks[-1] + 1:
                self.contiguous = False
            self._blocks.append(block)
            self._rows = np.concatenate(
                [self._rows, np.arange(block * bt, (block + 1) * bt,
                                       dtype=np.intp)])

    # -- prefix caching -------------------------------------------------------

    def attach_prefix(self, tokens: Sequence[int]) -> int:
        """Splice in shared blocks for the longest indexed prompt prefix.

        Walks the chained digests over the prompt's full blocks; every
        hit raises that block's refcount and maps it into this session's
        row table, so the attached K/V (and packed signs, when the
        publisher had its sign cache on) are served without re-prefill.
        Stops at the first miss.  Returns the number of attached tokens —
        the engine resumes prefill from there.

        Only valid on an empty session cache: attached blocks must form
        the logical prefix, and they are full by construction so later
        appends can never write into them.
        """
        pool = self.pool
        if not pool.prefix_caching:
            return 0
        if self._freed:
            raise RuntimeError("PagedKVCache was freed")
        if self._blocks or len(self):
            raise RuntimeError(
                "attach_prefix requires an empty session cache")
        arr = np.asarray(tokens, dtype=np.int64)
        bt = pool.block_tokens
        n_full = len(arr) // bt
        digest = b""
        entries: List[_PrefixEntry] = []
        for start in range(0, n_full * bt, bt):
            digest = _chain_digest(digest, arr[start:start + bt])
            entry = pool._prefix_index.get(digest)
            if entry is None:
                break
            entries.append(entry)
        hits = len(entries)
        if hits:
            pool.prefix_hits += hits
            pool.obs.metrics.counter("serve.prefix.hit").inc(hits)
        if hits < n_full:
            pool.prefix_misses += 1
            pool.obs.metrics.counter("serve.prefix.miss").inc()
        if not hits:
            return 0
        signed_run = 0
        for entry in entries:
            entry.refcount += 1
            self._entry_by_block[entry.block] = entry
            if self._blocks and entry.block != self._blocks[-1] + 1:
                self.contiguous = False
            self._blocks.append(entry.block)
            if signed_run == len(self._blocks) - 1 and entry.signs_packed:
                signed_run += 1
        self._rows = np.concatenate(
            [np.arange(b * bt, (b + 1) * bt, dtype=np.intp)
             for b in self._blocks])
        attached = hits * bt
        for layer in self.layers:
            layer._len = attached
        self._prefix_digest = entries[-1].key
        self._published_tokens = attached
        self.prefix_signed_tokens = signed_run * bt
        pool._note_shared_blocks()
        return attached

    def publish_prefix(self, tokens: Sequence[int]) -> int:
        """Register this session's full prompt blocks in the prefix index.

        ``tokens`` is the prompt prefix written so far (the engine calls
        this after each prefill chunk); blocks already hashed — attached
        or previously published — are skipped via the resumed digest
        chain.  A digest another session already registered is *not*
        re-registered: this session's copy of the block stays private
        (slight arena waste, no remapping churn).  Returns the number of
        newly registered blocks.
        """
        pool = self.pool
        if not pool.prefix_caching or self._freed:
            return 0
        arr = np.asarray(tokens, dtype=np.int64)
        bt = pool.block_tokens
        full = min((len(arr) // bt) * bt, len(self))
        registered = 0
        while self._published_tokens + bt <= full:
            start = self._published_tokens
            digest = _chain_digest(self._prefix_digest,
                                   arr[start:start + bt])
            block = self._blocks[start // bt]
            if digest not in pool._prefix_index:
                entry = _PrefixEntry(digest, block, 1,
                                     self._sign_cache_enabled)
                pool._prefix_index[digest] = entry
                self._entry_by_block[block] = entry
                registered += 1
            self._prefix_digest = digest
            self._published_tokens = start + bt
        if registered:
            pool._note_shared_blocks()
        return registered

    # -- KVCache interface ----------------------------------------------------

    def append(self, layer: int, k: np.ndarray, v: np.ndarray) -> None:
        self.layers[layer].append(k, v)

    def reserve(self, capacity: int) -> None:
        """Acquire blocks for ``capacity`` tokens up front (prefill)."""
        self.ensure_tokens(capacity)

    @property
    def sign_cache_enabled(self) -> bool:
        return self._sign_cache_enabled

    def enable_sign_cache(
            self, rotations: Optional["ItqRotations"] = None) -> None:
        """Enable per-layer sign packing (idempotent for the same bank)."""
        if self._sign_cache_enabled and self.sign_rotations is rotations:
            return
        for i, layer in enumerate(self.layers):
            layer.enable_sign_cache(
                rotations.matrices[i] if rotations is not None else None)
        self.sign_rotations = rotations
        self._sign_cache_enabled = True
        # The backlog pack above covered every row below len(self), so any
        # shared block this session references now holds valid signs —
        # future borrowers may skip them (one rotation bank per pool, so
        # the bytes are the same whoever packs them).
        for entry in self._entry_by_block.values():
            entry.signs_packed = True

    def free(self) -> None:
        """Return every block to the pool (idempotent).

        Shared blocks are dereferenced instead: a block goes back to the
        LIFO free list only when this was the last referencing session,
        at which point its index entry is retired too (no resident-but-
        unreferenced caching).
        """
        if self._freed:
            return
        for layer in self.layers:
            layer.free()
        pool = self.pool
        if self._entry_by_block:
            to_release: List[int] = []
            for block in self._blocks:
                entry = self._entry_by_block.get(block)
                if entry is None:
                    to_release.append(block)
                    continue
                entry.refcount -= 1
                if entry.refcount == 0:
                    del pool._prefix_index[entry.key]
                    to_release.append(block)
            pool.release(to_release)
            self._entry_by_block = {}
            pool._note_shared_blocks()
        else:
            pool.release(self._blocks)
        self._blocks = []
        self._rows = np.empty(0, dtype=np.intp)
        self._freed = True

    # -- dense/sparse views (mirrors KVCache) ---------------------------------

    def window_view(self, layer: int, window: int,
                    n_sink: int = 0) -> tuple:
        """(keys, values, positions) of sinks + recent window.

        Past ``n_sink + window`` tokens the arena is indexed through the
        row map for exactly those positions — an O(window) read, never a
        gather of the whole context.
        """
        kv = self.layers[layer]
        n = len(kv)
        if n <= n_sink + window:
            return kv.keys, kv.values, np.arange(n)
        pos = np.concatenate([np.arange(n_sink), np.arange(n - window, n)])
        return kv._read(kv._k, pos), kv._read(kv._v, pos), pos

    def offloaded_view(self, layer: int, window: int,
                       n_sink: int = 0) -> tuple:
        """(keys, values, positions) of the sparse (offloaded) region."""
        kv = self.layers[layer]
        span = slice(n_sink, max(len(kv) - window, n_sink))
        return (kv._read(kv._k, span), kv._read(kv._v, span),
                np.arange(span.start, span.stop))
