"""Serving systems: the analytic models and the backends that decode.

Every serving benchmark compares the same three systems.  Each is an
analytic system model, which charges the engine's clock and admits its
sessions, paired with the functional attention backend that decodes their
tokens.  Traces are :class:`repro.bench.scenario.Trace` specs.
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.core.config import LongSightConfig
from repro.core.hybrid import LongSightAttention
from repro.drex.backend import DrexOffloadBackend
from repro.faults import FaultPlan
from repro.llm.config import ModelConfig
from repro.llm.model import DenseBackend
from repro.system.baselines import DenseGpuSystem, SlidingWindowGpuSystem
from repro.system.engine import LongSightSystem

#: The three systems every serve benchmark compares.
SYSTEM_NAMES = ("longsight", "dense", "sliding_window")


def default_systems(window: int = 1024, n_sink: int = 16) -> Dict[str, object]:
    """Paper-scale analytic system models, keyed by serve-bench name."""
    ls = LongSightConfig(window=window, n_sink=n_sink, top_k=1024,
                         use_itq=True)
    return {
        "longsight": LongSightSystem(ls),
        "dense": DenseGpuSystem(),
        "sliding_window": SlidingWindowGpuSystem(window=window,
                                                 n_sink=n_sink),
    }


def backend_factory(name: str, tiny_ls: LongSightConfig,
                    model_config: Optional[ModelConfig] = None,
                    plan: Optional[FaultPlan] = None):
    """Per-session functional backend maker for system ``name``, or
    ``offload``: LongSight through its own supervised
    :class:`DrexOffloadBackend` under ``plan``.

    A fresh backend per session keeps per-cache state (threshold caches,
    sign-rotation expectations, the device's flush watermarks) from
    leaking across sessions.
    """
    if name == "longsight":
        return lambda request: LongSightAttention(tiny_ls)
    if name == "dense":
        return lambda request: DenseBackend()
    if name == "sliding_window":
        # The hybrid at top_k = 0; its sessions' configs are equal, so
        # their decode rows stack.
        sliding = tiny_ls.replace(top_k=0)
        return lambda request: LongSightAttention(sliding)
    if name == "offload":
        return lambda request: DrexOffloadBackend(model_config, tiny_ls,
                                                  plan=plan)
    raise ValueError(f"unknown system: {name!r}")
