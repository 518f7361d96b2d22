"""Logical data layout: Key Blocks, Context Slices, User Partitions (§7.3.3).

The hierarchy maps multi-user context data onto DReX's physical parallelism:

- **Key Block group** — 128 keys per bank across all 8 channels of a package
  (1,024 keys), the minimum allocation unit.  Sign bits are bank-local (a
  Key Sign Object never straddles a bank); full-precision keys and values
  are interleaved across the package's channels for bandwidth balance.
- **Context Slice** — the keys of one (user, layer, KV head): up to 128
  Key Block groups (one per bank index), so at most
  ``1,024 x 128 = 131,072`` keys.
- **Multi-Layer Context Slice** — a head's Context Slices across layers,
  stored contiguously in one package (layers execute sequentially).
- **User Partition** — one Multi-Layer Context Slice per KV head, each in a
  different package for head-level parallelism.  Contexts longer than a
  full slice spill into additional slices ("temporal expansion").

Kept unreached: ``UserPartition.total_keys``,
``UserPartition.packages_used``, ``ContextSlice.bytes_used`` — eviction;
ROADMAP item 22 (one shared device per worker) makes it live.
"""

from __future__ import annotations

import dataclasses
import math
from typing import Dict, List, Tuple

from repro.drex.geometry import DrexGeometry, DREX_DEFAULT


@dataclasses.dataclass
class KeyBlockGroup:
    """One Key Block per bank at a fixed bank index, across all channels.

    Holds up to ``geometry.keys_per_key_block_group`` (1,024) keys; rows are
    allocated at the same offsets in every channel of the package.
    """

    bank_index: int
    row_start: int
    rows_per_bank: int
    capacity: int
    n_keys: int = 0

    @property
    def free(self) -> int:
        return self.capacity - self.n_keys


def rows_per_group(head_dim: int, geometry: DrexGeometry = DREX_DEFAULT,
                   dtype_bytes: int = 2) -> int:
    """DRAM rows per bank consumed by one full Key Block group.

    Per bank: the Key Sign Object (d columns x 128 bits), plus this bank's
    1/8th channel-interleaved share of the group's full-precision Key and
    Value Objects.
    """
    g = geometry
    sign_bytes = head_dim * g.pfu_keys_per_block // 8
    group_keys = g.keys_per_key_block_group
    kv_bytes_per_bank = group_keys * head_dim * dtype_bytes // g.channels_per_package
    sign_rows = math.ceil(sign_bytes / g.row_bytes)
    key_rows = math.ceil(kv_bytes_per_bank / g.row_bytes)
    value_rows = key_rows
    return sign_rows + key_rows + value_rows


@dataclasses.dataclass
class ContextSlice:
    """Storage of one (user, layer, KV head) context segment in one package."""

    uid: int
    layer: int
    kv_head: int
    package: int
    head_dim: int
    groups: List[KeyBlockGroup] = dataclasses.field(default_factory=list)
    dtype_bytes: int = 2

    @property
    def n_keys(self) -> int:
        return sum(group.n_keys for group in self.groups)

    def banks_spanned(self, geometry: DrexGeometry = DREX_DEFAULT) -> int:
        """Distinct (channel, bank) pairs holding this slice's sign blocks.

        Filtering parallelism: every group activates its bank index in all
        channels of the package.
        """
        return len(self.groups) * geometry.channels_per_package

    def bytes_used(self, geometry: DrexGeometry = DREX_DEFAULT) -> int:
        rows = rows_per_group(self.head_dim, geometry, self.dtype_bytes)
        return (len(self.groups) * rows * geometry.row_bytes
                * geometry.channels_per_package)


@dataclasses.dataclass
class UserPartition:
    """All of one user's Context Slices, keyed by (layer, KV head).

    ``slices[(layer, kv_head)]`` is a list — contexts longer than one full
    Context Slice chain into further slices, possibly in other packages.
    """

    uid: int
    slices: Dict[Tuple[int, int], List[ContextSlice]] = dataclasses.field(
        default_factory=dict)

    def total_keys(self) -> int:
        return sum(s.n_keys for chain in self.slices.values() for s in chain)

    def packages_used(self) -> set:
        return {s.package for chain in self.slices.values() for s in chain}


def packages_required(n_kv_heads: int, context_length: int,
                      geometry: DrexGeometry = DREX_DEFAULT) -> int:
    """Paper's sizing formula: ``h_kv * ceil(L / 131,072)`` package-slices.

    (Section 7.3.3 writes it as ``h_kv * L / 131,072``; we round up since a
    partial slice still occupies a package's banks.)
    """
    slices_per_head = math.ceil(context_length / geometry.max_keys_per_context_slice)
    return n_kv_heads * max(1, slices_per_head)
