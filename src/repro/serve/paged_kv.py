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

:class:`PagedKVCache` *is* a :class:`~repro.llm.kv_cache.KVCache`: the layer
store (append, sign packing, every read) is that module's, over the pool's
arenas.  This module adds what a block-backed row source does differently:
the allocator and free list, the session's block list and the row map
derived from it (:func:`block_rows`), and the prefix index.  A session
whose blocks are one ascending run is read as zero-copy slices; that is
rare once the pool has churned (1.5% / 0.4% / 1.1% / 15.0% of reads on the
four ledger workloads: ``release`` extends the LIFO list in ascending
order, so a recycled run pops *descending*, and chunked prefill interleaves
sessions' growth), so nearly every paged read is one ``take`` of mapped
arena rows.

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
from repro.llm.kv_cache import KVCache, SessionLayerKV, new_arenas
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


def block_rows(blocks: Sequence[int], block_tokens: int) -> np.ndarray:
    """Arena rows of the token slots of ``blocks``, in block order — the
    one place a block list becomes rows (session row maps, snapshots)."""
    return (np.asarray(blocks, dtype=np.intp)[:, None] * block_tokens
            + np.arange(block_tokens, dtype=np.intp)).ravel()


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
        self.sign_nbytes = (config.head_dim + 7) // 8
        #: per-layer arenas; indexed [layer][kv_head, arena_row, dim]
        self.k_arenas, self.v_arenas, self.sign_arenas = zip(*(
            new_arenas(config.n_kv_heads, n_blocks * block_tokens,
                       config.head_dim, config.kv_dtype)
            for _ in range(config.n_layers)))
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

    def indexed_prefix(self, tokens: Sequence[int]) -> List[_PrefixEntry]:
        """Index entries of the longest indexed prefix of this prompt.

        The one walk of the chained digests over the prompt's full blocks,
        up to the first miss.  Metric-free (no refcount, no hit/miss
        counter), so what the router scores (:meth:`longest_prefix_tokens`)
        is what :meth:`PagedKVCache.attach_prefix` attaches.
        """
        entries: List[_PrefixEntry] = []
        if not self.prefix_caching:
            return entries
        arr = np.asarray(tokens, dtype=np.int64)
        bt = self.block_tokens
        digest = b""
        for start in range(0, (len(arr) // bt) * bt, bt):
            digest = _chain_digest(digest, arr[start:start + bt])
            entry = self._prefix_index.get(digest)
            if entry is None:
                break
            entries.append(entry)
        return entries

    def longest_prefix_tokens(self, tokens: Sequence[int]) -> int:
        """Cached-prefix length (tokens) the index holds for this prompt:
        a router's probe of worker locality that perturbs no stats."""
        return len(self.indexed_prefix(tokens)) * self.block_tokens


#: One layer of a paged session is the general layer store over the pool's
#: arenas; the name is kept because ``perf/spans.py`` patches the store's
#: reads and ``append`` through it.
PagedLayerKV = SessionLayerKV


class PagedKVCache(KVCache):
    """A session's KV cache backed by pool blocks: the pool row source.

    All layers share one block list (they grow in lockstep), so the block
    cost of a session is ``ceil(tokens / block_tokens)`` — paid once, not
    per layer.  :meth:`free` returns every block to the pool; the freed
    cache must not be appended to again.
    """

    def __init__(self, pool: PagedKVPool) -> None:
        self.pool = pool
        self._blocks: List[int] = []
        #: logical token position -> arena row, grown block-by-block.
        self.row_map = block_rows((), pool.block_tokens)
        #: the blocks are one ascending run (slices are zero-copy views).
        self.contiguous = True
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
        super().__init__(pool.config)       # builds the layers over self.pool

    def _new_layers(self) -> List[SessionLayerKV]:
        return [PagedLayerKV(self, arenas) for arenas in zip(
            self.pool.k_arenas, self.pool.v_arenas, self.pool.sign_arenas)]

    @property
    def n_blocks(self) -> int:
        return len(self._blocks)

    @property
    def block_ids(self) -> List[int]:
        return list(self._blocks)

    # -- row mapping ----------------------------------------------------------

    def _map_blocks(self, blocks: List[int], n_tokens: int = 0) -> None:
        """Extend the session by ``blocks`` — the one place the block list
        and the row map grow and ``contiguous`` is decided — of which the
        first ``n_tokens`` slots already hold this session's tokens (an
        attached prefix, a restored session)."""
        run = self._blocks[-1:] + blocks
        self.contiguous = self.contiguous and all(
            b == a + 1 for a, b in zip(run, run[1:]))
        self._blocks += blocks
        self.row_map = np.concatenate(
            [self.row_map, block_rows(blocks, self.pool.block_tokens)])
        if n_tokens:
            for layer in self.layers:
                layer._len = n_tokens

    def ensure_tokens(self, n_tokens: int) -> None:
        """Grow the block list to cover ``n_tokens`` logical slots.

        Raises :class:`~repro.errors.PoolExhaustedError` (leaving the
        session's existing blocks intact) when the pool cannot supply the
        growth — the engine's preemption signal.
        """
        if self.freed:
            raise RuntimeError("PagedKVCache was freed; sessions must not "
                               "append after release")
        need = self.pool.blocks_for_tokens(n_tokens) - len(self._blocks)
        if need > 0:
            self._map_blocks(self.pool.allocate(need))

    def reserve(self, capacity: int) -> None:
        """Acquire blocks for ``capacity`` tokens up front (prefill)."""
        self.ensure_tokens(capacity)

    # -- prefix caching -------------------------------------------------------

    def attach_prefix(self, tokens: Sequence[int]) -> int:
        """Splice in shared blocks for the longest indexed prompt prefix.

        Every block of :meth:`PagedKVPool.indexed_prefix` gets its
        refcount raised and is mapped into this session's row table, so
        the attached K/V (and packed signs, when the publisher had its
        sign cache on) are served without re-prefill.  Returns the number
        of attached tokens — the engine resumes prefill from there.

        Only valid on an empty session cache: attached blocks must form
        the logical prefix, and they are full by construction so later
        appends can never write into them.
        """
        pool = self.pool
        if not pool.prefix_caching:
            return 0
        if self.freed:
            raise RuntimeError("PagedKVCache was freed")
        if self._blocks or len(self):
            raise RuntimeError("attach_prefix requires an empty session cache")
        entries = pool.indexed_prefix(tokens)
        hits = len(entries)
        bt = pool.block_tokens
        if hits:
            pool.prefix_hits += hits
            pool.obs.metrics.counter("serve.prefix.hit").inc(hits)
        if hits < len(tokens) // bt:
            pool.prefix_misses += 1
            pool.obs.metrics.counter("serve.prefix.miss").inc()
        if not hits:
            return 0
        signed_run = 0
        for i, entry in enumerate(entries):
            entry.refcount += 1
            self._entry_by_block[entry.block] = entry
            if signed_run == i and entry.signs_packed:
                signed_run += 1
        attached = hits * bt
        self._map_blocks([entry.block for entry in entries], attached)
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
        if not pool.prefix_caching or self.freed:
            return 0
        arr = np.asarray(tokens, dtype=np.int64)
        bt = pool.block_tokens
        full = min((len(arr) // bt) * bt, len(self))
        registered = 0
        while self._published_tokens + bt <= full:
            start = self._published_tokens
            digest = _chain_digest(self._prefix_digest, arr[start:start + bt])
            block = self._blocks[start // bt]
            if digest not in pool._prefix_index:
                entry = _PrefixEntry(digest, block, 1, self.sign_cache_enabled)
                pool._prefix_index[digest] = entry
                self._entry_by_block[block] = entry
                registered += 1
            self._prefix_digest = digest
            self._published_tokens = start + bt
        if registered:
            pool._note_shared_blocks()
        return registered

    # -- what the prefix index adds to the KVCache lifecycle -----------------

    def enable_sign_cache(
            self, rotations: Optional["ItqRotations"] = None) -> None:
        """Enable per-layer sign packing (idempotent for the same bank)."""
        if self.sign_cache_enabled and self.sign_rotations is rotations:
            return      # every decode step asks: do not walk the entries
        super().enable_sign_cache(rotations)
        # The backlog pack covered every row below len(self), so any
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
        if self.freed:
            return
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
        self.row_map = block_rows((), pool.block_tokens)
        super().free()

    # -- durable state --------------------------------------------------------

    def state(self) -> dict:
        """JSON-safe session state for a durable snapshot: the block map
        and the prefix-caching state (the arena bytes are the pool's)."""
        return {
            "blocks": [int(b) for b in self._blocks],
            "tokens": len(self),
            "contiguous": bool(self.contiguous),
            "sign_enabled": bool(self.sign_cache_enabled),
            "prefix_digest": self._prefix_digest.hex(),
            "published_tokens": int(self._published_tokens),
            "prefix_signed_tokens": int(self.prefix_signed_tokens),
            "entry_digests": [entry.key.hex()
                              for entry in self._entry_by_block.values()],
        }

    @classmethod
    def from_state(cls, pool: PagedKVPool, state: dict) -> "PagedKVCache":
        """A session on ``pool``'s blocks as :meth:`state` recorded it.

        ``pool`` must already hold the snapshot's free list, arena bytes
        and prefix index: the session aliases the index's refcounted
        entries.  ``contiguous`` is derived from the block list.
        """
        cache = cls(pool)
        cache._map_blocks([int(b) for b in state["blocks"]],
                          int(state["tokens"]))
        cache._prefix_digest = bytes.fromhex(state["prefix_digest"])
        cache._published_tokens = int(state["published_tokens"])
        cache.prefix_signed_tokens = int(state["prefix_signed_tokens"])
        for key_hex in state["entry_digests"]:
            entry = pool._prefix_index[bytes.fromhex(key_hex)]
            cache._entry_by_block[entry.block] = entry
        # Arena sign bytes are restored verbatim; an enabled store is marked
        # so, so that appends keep packing.  ``sign_rotations`` stays None: a
        # rotation-less backend's prepare_cache no-ops, and an ITQ backend
        # re-enables with its (seed-deterministic) bank, rewriting identical
        # bytes.
        cache.sign_cache_enabled = bool(state["sign_enabled"])
        for layer in cache.layers:
            layer.sign_cache_enabled = cache.sign_cache_enabled
        return cache
