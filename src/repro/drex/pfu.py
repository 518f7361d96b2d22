"""PIM Filter Unit (PFU) model (Sections 7.1 and 7.4).

One PFU sits near every LPDDR bank.  Per *epoch* it filters one Key Sign
Object — a block of up to 128 keys, stored so each 128-bit column holds one
dimension across the block — against the sign bits of up to 16 queries,
emitting a 128-bit bitmap per query (bit set = key passes the
sign-concordance threshold).

Only the timing lives here: the filter itself is the software kernel's
stage 1 (:mod:`repro.core.hybrid`), and ``tests/drex/hardware_reference.py``
keeps the block-wise functional unit it is checked against.
"""

from __future__ import annotations

from repro.drex.dram import LpddrTimings, LPDDR5X
from repro.drex.geometry import DrexGeometry, DREX_DEFAULT


class PimFilterUnit:
    """Timed model of a single per-bank filter unit."""

    def __init__(self, geometry: DrexGeometry = DREX_DEFAULT,
                 timings: LpddrTimings = LPDDR5X) -> None:
        self.geometry = geometry
        self.timings = timings

    def bitmap_latency_ns(self, head_dim: int) -> float:
        """Bitmap generation time for one epoch: ``d x 1.25 ns``.

        One 128-bit column access per dimension; the XOR/accumulate against
        all (<= 16) query sign registers happens in the same cycle, so the
        epoch is column-read bound regardless of group size.
        """
        return self.timings.bitmap_generation_ns(head_dim)
