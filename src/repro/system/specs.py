"""Hardware specifications (Table 2).

| Device | Description                                                    |
|--------|----------------------------------------------------------------|
| CPU    | 16 x Intel Xeon Max 9462 @ 3.5 GHz, 8 x 128 GB DDR5-4400       |
| GPU    | NVIDIA H100 SXM, 80 GB HBM3, 989 TFlop/s (BF16), 3.35 TB/s     |
| DReX   | 8 NMAs, 8,192 PFUs, 512 GB LPDDR5X, 26.11 TF/s, 1.1 TB/s NMAs, |
|        | 104.9 TB/s PFU-internal                                        |
"""

from __future__ import annotations

import dataclasses


@dataclasses.dataclass(frozen=True)
class GpuSpec:
    """An NPU for the roofline model."""

    name: str
    tflops: float              # dense BF16 peak
    hbm_bytes: int
    hbm_bandwidth: float       # bytes/s
    kernel_overhead_ns: float = 3000.0  # per-layer fixed launch/sync cost
    reserve_bytes: int = 6 * 1024**3    # runtime/activations headroom

    @property
    def flops(self) -> float:
        return self.tflops * 1e12

    @property
    def usable_bytes(self) -> int:
        return self.hbm_bytes - self.reserve_bytes


H100 = GpuSpec(
    name="H100-SXM",
    tflops=989.0,
    hbm_bytes=80 * 1024**3,
    hbm_bandwidth=3.35e12,
)


@dataclasses.dataclass(frozen=True)
class CpuSpec:
    """Host CPU (only its memory matters to the baselines)."""

    name: str = "2x Xeon Max 9462"
    dram_bytes: int = 8 * 128 * 1024**3
    dram_bandwidth: float = 282e9


@dataclasses.dataclass(frozen=True)
class DrexSpec:
    """DReX headline compute (Table 2).  The geometry is
    :data:`repro.drex.geometry.DREX_DEFAULT`, and the bandwidths are
    derived from it by :mod:`repro.drex.dram`."""

    nma_tflops_total: float = 26.11


@dataclasses.dataclass(frozen=True)
class SystemSpec:
    """The full evaluation platform."""

    cpu: CpuSpec = CpuSpec()
    gpu: GpuSpec = H100
    drex: DrexSpec = DrexSpec()


PAPER_SYSTEM = SystemSpec()
