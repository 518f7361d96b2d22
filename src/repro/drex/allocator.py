"""DReX memory allocator (Sections 7.3.1–7.3.3).

Allocates Key Block groups — the minimum unit of 128 keys/bank across all
channels of a package — on behalf of Context Slices, and assembles them into
User Partitions.  Placement policy mirrors the paper:

- A (user, layer, KV head) slice lives in a single package; heads are
  spread across packages (``package = (uid + kv_head) % n_packages``) so a
  single user's per-layer offload engages every NMA.
- Within a package, groups take successive bank indices, so filtering
  parallelism grows with context length until all 128 bank indices are hot.
- Overflow beyond a full slice (131,072 keys) chains into the next package
  ("temporal expansion").

Row bookkeeping is per (package, bank index): rows are allocated at the
same offsets in every channel, which keeps address generation deterministic
for the NMA (Section 7.3.3).  The allocator never double-books a row and
raises :class:`CapacityError` when the device is full — both property-tested.

Kept unreached: ``DrexAllocator.free_user``,
``DrexAllocator._rebuild_cursors`` — eviction; ROADMAP item 22 (one shared
device per worker) makes it live.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.drex.geometry import DrexGeometry, DREX_DEFAULT
from repro.drex.layout import (
    ContextSlice,
    KeyBlockGroup,
    UserPartition,
    rows_per_group,
)
from repro.errors import CapacityError

__all__ = ["CapacityError", "DrexAllocator"]


class DrexAllocator:
    """Row-granular allocator over the DReX geometry."""

    def __init__(self, geometry: DrexGeometry = DREX_DEFAULT,
                 dtype_bytes: int = 2) -> None:
        self.geometry = geometry
        self.dtype_bytes = dtype_bytes
        # Next free row per (package, bank index); channels move in lockstep.
        self._row_cursor = np.zeros(
            (geometry.n_packages, geometry.banks_per_channel), dtype=np.int64)
        self.partitions: Dict[int, UserPartition] = {}

    # -- accounting ---------------------------------------------------------------

    @property
    def rows_used(self) -> int:
        return int(self._row_cursor.sum()) * self.geometry.channels_per_package

    @property
    def bytes_used(self) -> int:
        return self.rows_used * self.geometry.row_bytes

    def utilization(self) -> float:
        return self.bytes_used / self.geometry.capacity_bytes

    # -- placement ----------------------------------------------------------------

    def _home_package(self, uid: int, kv_head: int) -> int:
        return (uid + kv_head) % self.geometry.n_packages

    def _alloc_group(self, package: int, head_dim: int,
                     preferred_bank: Optional[int] = None) -> KeyBlockGroup:
        g = self.geometry
        rows = rows_per_group(head_dim, g, self.dtype_bytes)
        cursors = self._row_cursor[package]
        if preferred_bank is not None and \
                cursors[preferred_bank] + rows <= g.rows_per_bank:
            bank = preferred_bank
        else:
            bank = int(np.argmin(cursors))
            if cursors[bank] + rows > g.rows_per_bank:
                raise CapacityError(
                    f"package {package} cannot fit another Key Block group "
                    f"({rows} rows/bank needed)")
        row_start = int(cursors[bank])
        cursors[bank] += rows
        return KeyBlockGroup(bank_index=bank, row_start=row_start,
                             rows_per_bank=rows,
                             capacity=g.keys_per_key_block_group)

    def _partition(self, uid: int) -> UserPartition:
        if uid not in self.partitions:
            self.partitions[uid] = UserPartition(uid=uid)
        return self.partitions[uid]

    def append_keys(self, uid: int, layer: int, kv_head: int, n_keys: int,
                    head_dim: int) -> List[ContextSlice]:
        """Reserve space for ``n_keys`` more keys of one (layer, KV head).

        Extends the newest slice in the chain, adding Key Block groups at
        new bank indices as needed; spills to the next package once a slice
        reaches 128 groups.  Returns the (possibly extended) slice chain.
        """
        if n_keys < 0:
            raise ValueError("n_keys must be non-negative")
        g = self.geometry
        partition = self._partition(uid)
        chain = partition.slices.setdefault((layer, kv_head), [])
        if not chain:
            chain.append(ContextSlice(
                uid=uid, layer=layer, kv_head=kv_head,
                package=self._home_package(uid, kv_head),
                head_dim=head_dim, dtype_bytes=self.dtype_bytes))
        remaining = n_keys
        while remaining > 0:
            current = chain[-1]
            if current.head_dim != head_dim:
                raise ValueError("head_dim mismatch with existing slice")
            # Fill the last partially-full group first.
            if current.groups and current.groups[-1].free > 0:
                take = min(remaining, current.groups[-1].free)
                current.groups[-1].n_keys += take
                remaining -= take
                continue
            if len(current.groups) >= g.banks_per_channel:
                # Slice full (131,072 keys): chain into the next package.
                next_package = (current.package + 1) % g.n_packages
                chain.append(ContextSlice(
                    uid=uid, layer=layer, kv_head=kv_head,
                    package=next_package, head_dim=head_dim,
                    dtype_bytes=self.dtype_bytes))
                continue
            preferred = len(current.groups)  # successive bank indices
            group = self._alloc_group(current.package, head_dim, preferred)
            current.groups.append(group)
        return chain

    def free_user(self, uid: int) -> int:
        """Release a user's partition; returns bytes reclaimed.

        Rows are reclaimed logically (cursor bookkeeping is monotonic per
        bank; freed rows return to a per-package free pool counted against
        ``bytes_used``).  For simplicity and determinism we rebuild cursors
        from surviving partitions — eviction is rare (end of a session).
        """
        if uid not in self.partitions:
            return 0
        freed = sum(
            s.bytes_used(self.geometry)
            for chain in self.partitions[uid].slices.values() for s in chain)
        del self.partitions[uid]
        self._rebuild_cursors()
        return freed

    def _rebuild_cursors(self) -> None:
        self._row_cursor[:] = 0
        for partition in self.partitions.values():
            for chain in partition.slices.values():
                for s in chain:
                    for group in s.groups:
                        cursor = self._row_cursor[s.package]
                        end = group.row_start + group.rows_per_bank
                        cursor[group.bank_index] = max(
                            int(cursor[group.bank_index]), end)
