"""Re-export of :class:`repro.faults.CrashPlan` for ``perf/workloads.py``,
which imports it from here and which only a benchmark-maintenance change
edits; ROADMAP item 7 re-points that import and deletes this module."""
from repro.faults import CrashPlan  # noqa: F401
