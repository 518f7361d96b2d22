"""Compare two suite documents: ``python3 perf/compare.py A.json B.json``.

``A`` is the base (the parent commit, or the first of two runs of one
commit), ``B`` the candidate.  For every workload and end-to-end metric it
prints both medians, the ratio ``B / A`` with its base, the bound from
``BENCHMARK.json`` and a verdict:

- ``worse``      B's median is worse than A's by more than the bound;
- ``better``     B's median is better than A's by more than the bound;
- ``within``     neither, and the passes are steady enough to say so;
- ``unresolved`` the pass-to-pass spread of either side is wider than the
                 bound and the two ranges overlap: the runs cannot tell.

Exits non-zero on any ``worse`` and on a higher failed count.
"""

from __future__ import annotations

import json
import pathlib
import sys

PERF = pathlib.Path(__file__).resolve().parent


def verdict(a: dict, b: dict, better: str, bound: float) -> str:
    """Verdict for one metric from two ``{median, min, max}`` summaries."""
    sign = 1.0 if better == "lower" else -1.0
    worse_by = sign * (b["median"] - a["median"]) / a["median"]
    spread = max((s["max"] - s["min"]) / s["median"] for s in (a, b))
    overlap = a["min"] <= b["max"] and b["min"] <= a["max"]
    if spread > bound and overlap:
        return "unresolved"
    if worse_by > bound:
        return "worse"
    if worse_by < -bound:
        return "better"
    return "within"


def compare(base: dict, cand: dict, contract: dict) -> list:
    """Rows ``(workload, metric, a, b, ratio, bound, verdict)``."""
    rows = []
    for workload in [w["name"] for w in contract["workloads"]]:
        wa = base["workloads"].get(workload)
        wb = cand["workloads"].get(workload)
        if wa is None or wb is None:
            continue
        for m in contract["end_to_end"]:
            a, b = wa["metrics"][m["name"]], wb["metrics"][m["name"]]
            rows.append((workload, m["name"], a["median"], b["median"],
                         b["median"] / a["median"], m["bound"],
                         verdict(a, b, m["better"], m["bound"])))
        if wb["failed"] > wa["failed"]:
            rows.append((workload, "failed", wa["failed"], wb["failed"],
                         float("nan"), 0.0, "worse"))
    return rows


def main(argv) -> int:
    if len(argv) != 2:
        print(__doc__)
        return 2
    base, cand = (json.loads(pathlib.Path(p).read_text()) for p in argv)
    contract = json.loads((PERF.parent / "BENCHMARK.json").read_text())
    rows = compare(base, cand, contract)
    print(f"{'workload':22s} {'metric':20s} {'A (base)':>12s} {'B':>12s} "
          f"{'B/A':>7s} {'bound':>6s}  verdict")
    for workload, metric, a, b, ratio, bound, word in rows:
        print(f"{workload:22s} {metric:20s} {a:12.4f} {b:12.4f} "
              f"{ratio:7.3f} {bound:6.2f}  {word}")
    for word in ("worse", "unresolved", "better", "within"):
        print(f"{word}: {sum(1 for r in rows if r[-1] == word)}")
    return 1 if any(r[-1] == "worse" for r in rows) else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
