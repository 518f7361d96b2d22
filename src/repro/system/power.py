"""Power and area model (Section 9.4).

LongSight leaves DReX's PFU untouched and only slightly grows the NMA
scratchpads, so the profile matches the DReX paper:

- each LPDDR5X package: up to 18.7 W peak,
- PFUs: 6.7% area overhead relative to the total DRAM die area,
- each NMA (16 nm): 15.1 mm^2, 1.072 W peak,
- device total: 8 packages + 8 NMAs ~= 158.2 W,
- DCC extensions: negligible.
"""

from __future__ import annotations

import dataclasses

from repro.drex.geometry import DrexGeometry, DREX_DEFAULT


@dataclasses.dataclass(frozen=True)
class PowerAreaModel:
    """Published per-component power/area constants with aggregation."""

    geometry: DrexGeometry = DREX_DEFAULT
    package_peak_w: float = 18.7
    nma_peak_w: float = 1.072
    nma_area_mm2: float = 15.1
    pfu_area_overhead: float = 0.067  # fraction of DRAM die area
    nma_process_nm: int = 16
    h100_tdp_w: float = 700.0

    @property
    def drex_peak_w(self) -> float:
        """Total device peak power (paper: 158.2 W)."""
        return (self.geometry.n_packages * self.package_peak_w
                + self.geometry.n_nmas * self.nma_peak_w)

    def system_peak_w(self, n_gpus: int = 1, with_drex: bool = True) -> float:
        """GPU(s) + optional DReX peak power."""
        total = n_gpus * self.h100_tdp_w
        if with_drex:
            total += self.drex_peak_w
        return total
