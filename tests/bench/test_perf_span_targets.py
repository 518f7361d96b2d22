"""Every callable the benchmark's tracer patches still exists under ``src/``.

``perf/spans.py`` (the traced half of ``BENCHMARK.json``'s benchmark) wraps
public callables of ``repro`` by name — methods through the class
``__dict__``, module functions through ``getattr``.  A rename under
``src/`` therefore breaks every traced benchmark run, and nothing in
tier-1 imports ``perf/``.  This test installs and removes the patches, so
the missing name fails here, by name, instead of at the benchmark gate.
It reads ``perf/``; it changes nothing there.
"""

import importlib.util
import pathlib

import pytest

SPANS = pathlib.Path(__file__).resolve().parents[2] / "perf" / "spans.py"


def test_every_span_target_resolves():
    if not SPANS.exists():
        pytest.skip("perf/ is not part of this checkout")
    spec = importlib.util.spec_from_file_location("perf_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    created = []

    class Tracked(spans.Patches):
        """Keeps the handle, so a half-done install is still undone."""

        def __init__(self, recorder):
            super().__init__(recorder)
            created.append(self)

    spans.Patches = Tracked
    try:
        spans.install(spans.Recorder())
    except (KeyError, AttributeError) as exc:
        pytest.fail(f"perf/spans.py patches a name that src/ no longer "
                    f"defines: {exc!r}")
    finally:
        for patches in created:
            patches.remove()
