"""Hypothesis strategy: serving scenarios drawn from a seed.

:func:`scenarios` draws one to three tenants — shared prefixes or none,
Poisson / grouped / simultaneous arrivals, either length rule, outputs of
one token and more — onto one engine, a durable run or a two-worker
fleet, with a pool that is either tight (the largest session just fits
alone, so sessions contend and are preempted or migrated) or loose.  No
faults yet: every drawn scenario must serve each request exactly as solo
``generate`` does.
"""

from __future__ import annotations

from hypothesis import strategies as st

from repro.bench.scenario import (BLOCK_TOKENS, Scenario, Tenant, Topology,
                                  Trace)


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
def scenarios(draw) -> Scenario:
    trace = Trace(tuple(draw(tenants(i))
                        for i in range(draw(st.integers(1, 3)))),
                  prefix_seed=draw(st.integers(0, 2 ** 16)))
    largest = max(-(-(len(r.prompt) + r.max_new_tokens) // BLOCK_TOKENS)
                  for r in trace.requests())
    backend = draw(st.sampled_from(["longsight", "dense",
                                    "sliding_window"]))
    kind = draw(st.sampled_from(["engine", "durable", "fleet"]))
    topology = Topology(
        system=backend, backend=backend,
        n_blocks=draw(st.sampled_from([largest, largest + 1, 64])),
        prefix_caching=draw(st.booleans()),
        snapshot_every=3 if kind == "durable" else None,
        workers=2 if kind == "fleet" else 0)
    return Scenario(trace, topology, model_seed=draw(st.integers(0, 3)))
