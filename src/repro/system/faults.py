"""Kept unreached: ``CrashPlan``, a re-export of
:class:`repro.faults.CrashPlan` — the frozen ``perf/workloads.py`` imports
it from here; ROADMAP item 7(c) re-points that import and deletes this
module."""
from repro.faults import CrashPlan  # noqa: F401
