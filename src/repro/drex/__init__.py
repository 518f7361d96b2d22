"""DReX: the compute-enabled CXL memory expander (Section 7).

DReX integrates a PIM Filtering Unit (PFU) near every LPDDR5X bank and a
Near-Memory Accelerator (NMA) beside every package, behind a CXL Type-3
controller (DCC).  LongSight repurposes it as the sparse half of hybrid
attention: the GPU writes Key/Value/Key-Sign objects into DReX's address
space and submits per-(user, layer) attention request descriptors; DReX
filters in-DRAM, scores and ranks near-DRAM, and returns top-k keys/values.

The functional result is the software kernel's:
:class:`DrexOffloadBackend` is :class:`repro.core.hybrid.LongSightAttention`
driving a :class:`DrexDevice`, which holds no K/V and prices each offload
from the kernel's own filter survivors into a latency breakdown composed
from the paper's published constants (Section 8.2).
"""

from repro.drex.geometry import DrexGeometry, DREX_DEFAULT
from repro.drex.dram import LpddrTimings, LPDDR5X
from repro.drex.cxl import CxlLink
from repro.drex.descriptors import RequestDescriptor, ResponseDescriptor
from repro.drex.layout import KeyBlockGroup, ContextSlice, UserPartition
from repro.drex.allocator import DrexAllocator, CapacityError
from repro.drex.nma import NearMemoryAccelerator
from repro.drex.dcc import DrexCxlController, QueueFullError
from repro.drex.timing import DrexTimingModel, LatencyBreakdown, OffloadCost
from repro.drex.device import DrexDevice
from repro.drex.backend import DrexOffloadBackend

__all__ = [
    "DrexGeometry",
    "DREX_DEFAULT",
    "LpddrTimings",
    "LPDDR5X",
    "CxlLink",
    "RequestDescriptor",
    "ResponseDescriptor",
    "KeyBlockGroup",
    "ContextSlice",
    "UserPartition",
    "DrexAllocator",
    "CapacityError",
    "NearMemoryAccelerator",
    "DrexCxlController",
    "QueueFullError",
    "DrexTimingModel",
    "LatencyBreakdown",
    "OffloadCost",
    "DrexDevice",
    "DrexOffloadBackend",
]
