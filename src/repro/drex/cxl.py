"""CXL link model (Sections 2.2 and 8.2).

The paper emulates CXL on a dual-socket Xeon and folds memory-copy and
polling overheads into its model; we parameterize the same three costs:
propagation latency, link bandwidth, and the GPU-side polling loop that
watches the DCC's Polling Register.  DReX has one attach, so every
model charges the one :data:`LINK`.
"""

from __future__ import annotations

import dataclasses


@dataclasses.dataclass(frozen=True)
class CxlLink:
    """A CXL Type-3 load/store link between the GPU and DReX.

    Defaults approximate a CXL 3.x (PCIe 6.0 x16) attach — the generation a
    2025 compute-enabled expander would ship with: ~100 GB/s effective per
    direction and ~600 ns one-way access latency (public Pond/CXL-emulation
    measurements), with a polling-discovery overhead of half the mean
    polling interval plus the MMIO read.
    """

    bandwidth: float = 100e9       # bytes/s, per direction
    latency_ns: float = 600.0      # one-way load/store access
    polling_interval_ns: float = 1000.0

    def transfer_ns(self, n_bytes: float) -> float:
        """Latency + serialization for one transfer."""
        return self.latency_ns + n_bytes / self.bandwidth * 1e9

    def serialization_ns(self, n_bytes: float) -> float:
        """Pure occupancy of the link (for shared-bandwidth accounting)."""
        return n_bytes / self.bandwidth * 1e9

    @property
    def polling_overhead_ns(self) -> float:
        """Expected completion-discovery delay of the GPU polling loop."""
        return self.polling_interval_ns / 2.0 + self.latency_ns


#: The one link every model charges: DReX's attach at the defaults above.
LINK = CxlLink()
