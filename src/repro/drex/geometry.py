"""DReX DRAM geometry (Section 7.1 and Table 2).

The device comprises eight LPDDR5X packages; each package has eight
channels; each channel 128 banks (four dies of 32 banks).  A PFU sits near
every bank — 1,024 per package, 8,192 device-wide (Table 2; the prose in
Section 7.1 says "1,024" which matches the per-package count).  One NMA
serves each package.  Total capacity is 512 GB.
"""

from __future__ import annotations

import dataclasses


@dataclasses.dataclass(frozen=True)
class DrexGeometry:
    """Physical organization of a DReX device."""

    n_packages: int = 8
    channels_per_package: int = 8
    banks_per_channel: int = 128
    dies_per_channel: int = 4
    row_bytes: int = 2048          # one DRAM row (page) per bank
    col_bytes: int = 16            # 128-bit column, matching the PFU datapath
    capacity_bytes: int = 512 * 1024**3

    # PFU block parameters (Section 7.1): each PFU filters blocks of 128
    # keys for attention groups of up to 16 queries.
    pfu_keys_per_block: int = 128
    pfu_max_queries: int = 16

    # NMA top-k hardware cap (Section 7.2).
    max_top_k: int = 1024

    def __post_init__(self) -> None:
        if self.row_bytes % self.col_bytes != 0:
            raise ValueError("row_bytes must be a multiple of col_bytes")
        if self.capacity_bytes % (self.total_banks * self.row_bytes) != 0:
            raise ValueError("capacity must be whole rows per bank")

    # -- derived counts ---------------------------------------------------------

    @property
    def banks_per_package(self) -> int:
        return self.channels_per_package * self.banks_per_channel

    @property
    def total_banks(self) -> int:
        return self.n_packages * self.banks_per_package

    @property
    def n_pfus(self) -> int:
        """One PFU per bank: 8,192 for the default geometry."""
        return self.total_banks

    @property
    def n_nmas(self) -> int:
        """One NMA per package."""
        return self.n_packages

    @property
    def rows_per_bank(self) -> int:
        return self.capacity_bytes // (self.total_banks * self.row_bytes)

    # -- layout capacities (Section 7.3) ------------------------------------------

    @property
    def keys_per_key_block_group(self) -> int:
        """Minimum Key Block group: 128 keys per bank x 8 channels = 1,024."""
        return self.pfu_keys_per_block * self.channels_per_package

    @property
    def max_keys_per_context_slice(self) -> int:
        """Full Context Slice: 1,024 keys x 128 banks = 131,072."""
        return self.keys_per_key_block_group * self.banks_per_channel


#: The configuration evaluated in the paper.
DREX_DEFAULT = DrexGeometry()
