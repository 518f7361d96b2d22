"""Tables 1 and 2, and the Section 9.4 power/area numbers."""

from __future__ import annotations

from repro.bench.tables import Table
from repro.drex.dram import LPDDR5X
from repro.drex.geometry import DREX_DEFAULT
from repro.llm.config import LLAMA3_1B, LLAMA3_8B, SIM_FOR_PAPER
from repro.system.power import PowerAreaModel
from repro.system.specs import PAPER_SYSTEM


def run_table1() -> Table:
    """Table 1: model parameters (plus their miniature stand-ins)."""
    table = Table(
        "Table 1: model parameters",
        ["field", "llama-3-1b", "llama-3-8b"],
        note="Stand-in rows show the trained miniatures used for the "
             "algorithm experiments (same architecture family).")
    rows = [
        ("attention", "GQA", "GQA"),
        ("query/KV heads", f"{LLAMA3_1B.n_q_heads}/{LLAMA3_1B.n_kv_heads}",
         f"{LLAMA3_8B.n_q_heads}/{LLAMA3_8B.n_kv_heads}"),
        ("head dim", LLAMA3_1B.head_dim, LLAMA3_8B.head_dim),
        ("layers", LLAMA3_1B.n_layers, LLAMA3_8B.n_layers),
        ("quantization", "BF16", "BF16"),
        ("params (approx)", f"{LLAMA3_1B.n_params() / 1e9:.2f}B",
         f"{LLAMA3_8B.n_params() / 1e9:.2f}B"),
        ("KV bytes/token", LLAMA3_1B.kv_bytes_per_token(),
         LLAMA3_8B.kv_bytes_per_token()),
        ("stand-in", SIM_FOR_PAPER["llama-3-1b"].name,
         SIM_FOR_PAPER["llama-3-8b"].name),
        ("stand-in heads",
         f"{SIM_FOR_PAPER['llama-3-1b'].n_q_heads}/"
         f"{SIM_FOR_PAPER['llama-3-1b'].n_kv_heads}",
         f"{SIM_FOR_PAPER['llama-3-8b'].n_q_heads}/"
         f"{SIM_FOR_PAPER['llama-3-8b'].n_kv_heads}"),
        ("stand-in head dim", SIM_FOR_PAPER["llama-3-1b"].head_dim,
         SIM_FOR_PAPER["llama-3-8b"].head_dim),
    ]
    for field, a, b in rows:
        table.add_row(**{"field": field, "llama-3-1b": a, "llama-3-8b": b})
    return table


def run_table2() -> Table:
    """Table 2: system configuration."""
    spec = PAPER_SYSTEM
    g = DREX_DEFAULT

    table = Table("Table 2: system configuration", ["device", "field", "value"])
    rows = [
        ("CPU", "description", spec.cpu.name),
        ("CPU", "DRAM", f"{spec.cpu.dram_bytes / 1024**3:.0f} GB"),
        ("CPU", "bandwidth", f"{spec.cpu.dram_bandwidth / 1e9:.0f} GB/s"),
        ("GPU", "description", spec.gpu.name),
        ("GPU", "compute", f"{spec.gpu.tflops:.0f} TFlop/s"),
        ("GPU", "HBM", f"{spec.gpu.hbm_bytes / 1024**3:.0f} GB"),
        ("GPU", "bandwidth", f"{spec.gpu.hbm_bandwidth / 1e12:.2f} TB/s"),
        ("DReX", "NMAs", g.n_nmas),
        ("DReX", "PFUs", g.n_pfus),
        ("DReX", "capacity", f"{g.capacity_bytes / 1024**3:.0f} GB LPDDR5X"),
        ("DReX", "NMA compute", f"{spec.drex.nma_tflops_total:.2f} TFlop/s"),
        ("DReX", "NMA bandwidth",
         f"{LPDDR5X.device_bandwidth(g) / 1e12:.2f} TB/s"),
        ("DReX", "PFU bandwidth",
         f"{LPDDR5X.pfu_internal_bandwidth(g) / 1e12:.1f} TB/s"),
    ]
    for device, field, value in rows:
        table.add_row(device=device, field=field, value=value)
    return table


def run_power_area() -> Table:
    """Section 9.4: power and area."""
    model = PowerAreaModel()
    table = Table(
        "Section 9.4: power and area",
        ["component", "metric", "value", "paper"],
        note="Constants carried from the DReX design (LongSight leaves the "
             "PFU unchanged and only grows NMA scratchpads slightly).")
    rows = [
        ("LPDDR5X package", "peak power (W)", model.package_peak_w, 18.7),
        ("PFUs", "area overhead (frac of DRAM die)",
         model.pfu_area_overhead, 0.067),
        ("NMA", "area (mm^2, 16nm)", model.nma_area_mm2, 15.1),
        ("NMA", "peak power (W)", model.nma_peak_w, 1.072),
        ("DReX total", "peak power (W)", model.drex_peak_w, 158.2),
        ("GPU+DReX system", "peak power (W)",
         model.system_peak_w(n_gpus=1), None),
    ]
    for component, metric, value, paper in rows:
        table.add_row(component=component, metric=metric, value=value,
                      paper=paper)
    return table
