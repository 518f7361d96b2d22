"""Near-Memory Accelerator (NMA) model (Sections 7.1 and 7.4).

One NMA serves each LPDDR5X package.  For a sparse-attention offload it
(1) launches PFU filtering across the banks the Context Slice spans,
(2) reads back bitmaps, (3) fetches surviving full-precision keys across
all eight channels (they are interleaved precisely so this saturates the
package bandwidth), (4) evaluates dot-product scores, and (5) maintains a
partial top-k (hardware cap 1,024).

Table 2 gives the aggregate NMA compute of 26.11 TFlop/s (3.26 TFlop/s per
NMA) and 1.1 TB/s of aggregate NMA-side memory bandwidth.

Only the timing lives here: scoring and ranking are the software kernel's
stages 2-4 (:mod:`repro.core.hybrid`), and
``tests/drex/hardware_reference.py`` keeps the functional unit they are
checked against.
"""

from __future__ import annotations

from repro.drex.dram import LpddrTimings, LPDDR5X
from repro.drex.geometry import DrexGeometry, DREX_DEFAULT

#: Table 2: total NMA compute across the device.
TOTAL_NMA_TFLOPS = 26.11


class NearMemoryAccelerator:
    """Timed model of one per-package accelerator."""

    def __init__(self, geometry: DrexGeometry = DREX_DEFAULT,
                 timings: LpddrTimings = LPDDR5X,
                 tflops: float = TOTAL_NMA_TFLOPS / 8,
                 clock_ghz: float = 1.6) -> None:
        self.geometry = geometry
        self.timings = timings
        self.flops = tflops * 1e12
        self.clock_ghz = clock_ghz

    #: Back-to-back bitmap read interval once the pipeline is primed
    #: (column-to-column cadence on one channel).
    BITMAP_BURST_NS = 4.0

    def bitmap_read_latency_ns(self, n_blocks: int, epochs: int = 1) -> float:
        """Reading PFU bitmaps back into the NMA.

        The first read on each channel pays the full 120.4 ns access
        latency; subsequent reads pipeline at the column cadence.  Channels
        proceed in parallel.
        """
        per_channel = -(-n_blocks // self.geometry.channels_per_package)
        per_epoch = (self.timings.bitmap_read_ns
                     + max(0, per_channel - 1) * self.BITMAP_BURST_NS)
        return epochs * per_epoch

    def scoring_latency_ns(self, n_survivors: int, head_dim: int,
                           n_queries: int, dtype_bytes: int = 2) -> float:
        """Dot-product phase: max(key streaming, MAC compute).

        Keys stream once across the package's channels and are reused for
        every query in the group from NMA SRAM.
        """
        mem_ns = self.timings.stream_ns(
            n_survivors * head_dim * dtype_bytes,
            self.geometry.channels_per_package)
        flop = 2.0 * n_survivors * head_dim * n_queries
        compute_ns = flop / self.flops * 1e9
        return max(mem_ns, compute_ns)

    def ranking_latency_ns(self, k: int) -> float:
        """Exposed top-k drain after the scoring stream.

        Insertions into the k-sorter are pipelined with scoring (one
        comparator network per query); only the final drain of the sorted
        list is exposed: ``k`` cycles at the NMA clock.
        """
        return min(k, self.geometry.max_top_k) / self.clock_ghz
