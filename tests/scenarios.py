"""Hypothesis strategy: serving scenarios drawn from a seed.

:func:`scenarios` draws one to three tenants — shared prefixes or none,
Poisson / grouped / simultaneous arrivals, either length rule, outputs of
one token and more — onto one engine, a durable run, or a two-worker
fleet, plain or durable, with a pool that is either tight (the largest
session just fits alone, so sessions contend and are preempted or
migrated, through the workers' logs when they are durable) or loose.
Sessions decode through the software kernel, dense, the sliding window, or
the supervised DReX offload backend under a drawn :class:`FaultPlan` (each
of the seven fault kinds at rate 0, 0.1 or 0.5, and a seed).  Every drawn
scenario must serve each request exactly as solo ``generate`` does under
the same plan.
"""

from __future__ import annotations

from hypothesis import strategies as st

from repro.bench.scenario import (BLOCK_TOKENS, Faults, Scenario, Tenant,
                                  Topology, Trace)
from repro.faults import FAULT_KINDS, FaultPlan


@st.composite
def tenants(draw, index: int) -> Tenant:
    arrivals = draw(st.sampled_from(
        [dict(rate=500.0), dict(rate=20.0), dict(group=2, gap_s=0.01), {}]))
    return Tenant(
        n=draw(st.integers(1, 4)),
        prompt_tokens=draw(st.integers(1, 24)),
        output_tokens=draw(st.sampled_from([1, 3, 12])),
        seed=draw(st.integers(0, 2 ** 16)),
        extra=draw(st.sampled_from([0, 8])),
        prefix_tokens=draw(st.sampled_from([0, BLOCK_TOKENS, 40])),
        name=f"tenant{index}", id_offset=100 * index, **arrivals)


@st.composite
def fault_plans(draw) -> FaultPlan:
    """An offload fault plan: every kind's rate from {0, 0.1, 0.5}."""
    rates = {f"{kind}_rate": draw(st.sampled_from([0.0, 0.1, 0.5]))
             for kind in FAULT_KINDS}
    return FaultPlan(**rates, seed=draw(st.integers(0, 2 ** 16)))


@st.composite
def scenarios(draw) -> Scenario:
    trace = Trace(tuple(draw(tenants(i))
                        for i in range(draw(st.integers(1, 3)))),
                  prefix_seed=draw(st.integers(0, 2 ** 16)))
    largest = max(-(-(len(r.prompt) + r.max_new_tokens) // BLOCK_TOKENS)
                  for r in trace.requests())
    backend = draw(st.sampled_from(["longsight", "dense",
                                    "sliding_window", "offload"]))
    kind = draw(st.sampled_from(["engine", "durable", "fleet",
                                 "durable_fleet"]))
    topology = Topology(
        system="longsight" if backend == "offload" else backend,
        backend=backend,
        n_blocks=draw(st.sampled_from([largest, largest + 1, 64])),
        prefix_caching=draw(st.booleans()),
        snapshot_every=3 if "durable" in kind else None,
        workers=2 if "fleet" in kind else 0)
    faults = Faults(offload=draw(fault_plans())) if backend == "offload" \
        else Faults()
    return Scenario(trace, topology, faults,
                    model_seed=draw(st.integers(0, 3)))
