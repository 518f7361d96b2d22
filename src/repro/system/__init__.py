"""System integration and performance modeling (Sections 6, 8.2, 9).

Combines an H100 roofline model with the DReX timing model and its CXL
link (:mod:`repro.drex.cxl`) into end-to-end decode-phase
throughput/latency estimates for:

- 1-GPU and 2-GPU (data-parallel) dense baselines,
- AttAcc-style HBM-PIM dense attention,
- sliding-window attention on a GPU,
- LongSight (GPU dense window + DReX sparse offload with overlap).

Each system is one decode-step routine over per-session contexts and one
capacity rule (``admits``); the serving engine charges that step, and the
Figure 7/8/9/10 benchmarks read it at a uniform batch (``evaluate``,
``max_users``).  Data-parallel GPUs place users greedily and the slowest
GPU sets the step.  As in the paper, only the decode phase is modeled
("LongSight does not impact the performance of the prefill phase",
Section 8.1.2).
"""

from repro.system.specs import GpuSpec, H100, SystemSpec, PAPER_SYSTEM
from repro.system.gpu import GpuModel
from repro.system.baselines import (
    ServingPoint,
    DenseGpuSystem,
    AttAccSystem,
    SlidingWindowGpuSystem,
)
from repro.system.engine import LongSightSystem
from repro.system.power import PowerAreaModel
from repro.system.sweep import pareto_frontier, ParetoPoint

__all__ = [
    "GpuSpec",
    "H100",
    "SystemSpec",
    "PAPER_SYSTEM",
    "GpuModel",
    "ServingPoint",
    "DenseGpuSystem",
    "AttAccSystem",
    "SlidingWindowGpuSystem",
    "LongSightSystem",
    "PowerAreaModel",
    "pareto_frontier",
    "ParetoPoint",
]
