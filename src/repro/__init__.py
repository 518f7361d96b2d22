"""LongSight (MICRO 2025) reproduction.

Hybrid dense–sparse attention for large-context LLMs, offloaded to a
compute-enabled CXL memory expander (DReX).  See DESIGN.md for the system
inventory and EXPERIMENTS.md for the paper-vs-measured record.

Packages, lowest layer first; a module imports only from its own layer or
a lower one (declared and checked in ``tests/test_layers.py``):

- ``repro.errors``, ``repro.faults``, ``repro.obs``, ``repro.data`` —
  leaves: the error hierarchy, fault/crash/gray-failure plans, metrics
  and tracing, synthetic long-context corpora.
- ``repro.llm``     — numpy transformer substrate, KV store, training.
- ``repro.core``    — the LongSight algorithm (SCF, ITQ, top-k, hybrid).
- ``repro.drex``    — DReX device model, its CXL link, offload supervisor.
- ``repro.system``  — GPU roofline, analytic serving systems, baselines.
- ``repro.serve``   — continuous-batching engine over a paged KV pool.
- ``repro.durable`` — write-ahead log, snapshots, crash recovery.
- ``repro.fleet``   — multi-worker router, health, failover.
- ``repro.bench``   — experiment harness used by the benchmarks.
"""

__version__ = "1.0.0"
