"""Do two result sets of the same code agree within the benchmark's bounds?

    python3 benchmarks/e2e/agree.py A.json B.json

A and B are files ``run.py --out`` wrote.  Prints one row per workload x
end-to-end metric with the relative difference and the metric's bound from
``BENCHMARK.json``; for the simulator workloads it also requires the traced
runs' simulated counts to be identical, because a seed fixes them.  Exits 1
when a difference is outside its bound, 2 when the files cannot be compared.
"""

from __future__ import annotations

import json
import sys
from typing import List, Optional

from common import SIM_WORKLOADS, load_contract

#: Traced-run values a seed determines exactly on the simulator workloads.
EXACT = (
    "sim.hit_percent_mean",
    "core.phases",
    "core.vertices",
    "simulator.events",
    "workload.build_calls",
)


def value(results: dict, workload: str, mode: str, metric: str) -> Optional[float]:
    try:
        return results[workload][mode]["metrics"][metric]["value"]
    except KeyError:
        return None


def main(argv: Optional[List[str]] = None) -> int:
    paths = sys.argv[1:] if argv is None else argv
    if len(paths) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    first, second = (json.load(open(path, encoding="utf-8")) for path in paths)
    contract = load_contract()
    outside = compared = 0
    print(f"{'workload':14s} {'metric':22s} {'A':>14s} {'B':>14s} "
          f"{'diff':>8s} {'bound':>6s}")
    for workload in (w["name"] for w in contract["workloads"]):
        for spec in contract["end_to_end"]:
            a = value(first, workload, "trace0", spec["name"])
            b = value(second, workload, "trace0", spec["name"])
            if a is None or b is None:
                continue
            compared += 1
            diff = abs(b - a) / abs(a) if a else float(b != a)
            verdict = "" if diff <= spec["bound"] else "  OUTSIDE"
            outside += bool(verdict)
            print(f"{workload:14s} {spec['name']:22s} {a:14.6g} {b:14.6g} "
                  f"{diff:8.2%} {spec['bound']:6.0%}{verdict}")
        if workload not in SIM_WORKLOADS:
            continue
        for metric in EXACT:
            a = value(first, workload, "trace1", metric)
            b = value(second, workload, "trace1", metric)
            if a is None or b is None:
                continue
            compared += 1
            verdict = "" if a == b else "  OUTSIDE"
            outside += bool(verdict)
            print(f"{workload:14s} {metric:22s} {a:14.6g} {b:14.6g} "
                  f"{'=' if a == b else '!=':>8s} {'exact':>6s}{verdict}")
    if not compared:
        print("no metric is present in both files", file=sys.stderr)
        return 2
    print(f"{compared} compared, {outside} outside their bound")
    return 1 if outside else 0


if __name__ == "__main__":
    sys.exit(main())
