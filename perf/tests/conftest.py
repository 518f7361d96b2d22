"""Makes ``perf/`` and ``src/`` importable for ``python -m pytest perf/tests``."""

import pathlib
import sys

PERF = pathlib.Path(__file__).resolve().parents[1]
for path in (PERF, PERF.parent / "src"):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))
