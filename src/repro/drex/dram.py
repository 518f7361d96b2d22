"""LPDDR5X timing and bandwidth model (Section 8.2 constants).

The paper extracts latency constants from Ramulator's LPDDR5 spec and
DRAMSim3 traces.  We encode those directly:

- bitmap generation in a PFU: ``d * 1.25 ns`` (one 128-bit column per
  dimension at the 0.8 GHz array clock),
- bitmap read into the NMA: 120.4 ns,
- address generation in the NMA memory controller: 1,024 ns per offload.

Bandwidths reproduce Table 2: 1.1 TB/s aggregate NMA-side LPDDR bandwidth
(137.5 GB/s per package) and 104.9 TB/s aggregate internal PFU bandwidth
(8,192 PFUs x 16 B per 1.25 ns).
"""

from __future__ import annotations

import dataclasses

from repro.drex.geometry import DrexGeometry, DREX_DEFAULT


@dataclasses.dataclass(frozen=True)
class LpddrTimings:
    """Latency/bandwidth constants for the DReX LPDDR5X subsystem."""

    column_cycle_ns: float = 1.25       # one 128-bit column access
    bitmap_read_ns: float = 120.4       # one PFU bitmap into the NMA
    address_gen_ns: float = 1024.0      # NMA memory-controller setup
    row_activate_ns: float = 18.0       # tRCD
    row_precharge_ns: float = 18.0      # tRP
    channel_bandwidth_gbps: float = 17.2   # GB/s per channel (LPDDR5X-8533 x16)

    def package_bandwidth(self, geometry: DrexGeometry = DREX_DEFAULT) -> float:
        """NMA-visible bandwidth of one package, bytes/second."""
        return self.channel_bandwidth_gbps * 1e9 * geometry.channels_per_package

    def device_bandwidth(self, geometry: DrexGeometry = DREX_DEFAULT) -> float:
        """Aggregate NMA-side bandwidth (Table 2: ~1.1 TB/s), bytes/second."""
        return self.package_bandwidth(geometry) * geometry.n_packages

    def pfu_internal_bandwidth(self, geometry: DrexGeometry = DREX_DEFAULT) -> float:
        """Aggregate in-DRAM PFU bandwidth (Table 2: ~104.9 TB/s), bytes/s."""
        per_pfu = geometry.col_bytes / (self.column_cycle_ns * 1e-9)
        return per_pfu * geometry.n_pfus

    def bitmap_generation_ns(self, head_dim: int) -> float:
        """PFU bitmap time for one 128-key block: d x 1.25 ns.

        One 128-bit column access per dimension; the XOR/accumulate against
        all (<= 16) query sign registers happens in the same cycle, so the
        epoch is column-read bound regardless of group size.
        """
        return head_dim * self.column_cycle_ns

    def stream_ns(self, n_bytes: float, n_channels: int) -> float:
        """Time to stream ``n_bytes`` across ``n_channels`` channels."""
        bw = self.channel_bandwidth_gbps * 1e9 * n_channels
        return n_bytes / bw * 1e9


#: Default LPDDR5X constants used throughout the perf model.
LPDDR5X = LpddrTimings()
