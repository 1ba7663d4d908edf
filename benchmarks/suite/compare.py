"""``run.py --compare A.json B.json``: every metric's bound, applied.

One row per (workload, end-to-end metric): both values, their ratio with
its base (B over A), the wider of the two files' own segment-to-segment
spreads, and a verdict —

* ``worse``       B is worse than A by more than the metric's bound;
* ``unresolved``  not worse, but the spread is wider than the bound, so
                  the pair cannot show "unchanged" either;
* ``same``        within the bound, and the spread is narrow enough to
                  say so.

Bounds and directions come from ``BENCHMARK.json``; ``failed_share`` is
held to an absolute 0.01.  Files measured on different CPU counts are
refused: nothing here holds across that.
"""

from __future__ import annotations

import json
import statistics
import sys

FAILED_SHARE_BOUND = 0.01


def spread(values: list[float]) -> float:
    """Distance between the quartiles as a share of the median."""
    if len(values) < 2:
        return float("nan")
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def verdict(a: float, b: float, better: str, bound: float,
            width: float) -> str:
    worse_by = (b - a) / a if better == "lower" else (a - b) / a
    if worse_by > bound:
        return "worse"
    # a spread that cannot be computed (one segment) resolves nothing
    return "same" if width <= bound else "unresolved"


def rows(a: dict, b: dict, spec: dict):
    """Yield (workload, metric, unit, a, b, ratio, spread, verdict)."""
    for name in a["workloads"]:
        if name not in b["workloads"]:
            continue
        wa, wb = a["workloads"][name], b["workloads"][name]
        for m in spec["end_to_end"]:
            metric = m["name"]
            if metric not in wa["metrics"] or metric not in wb["metrics"]:
                continue
            va = wa["metrics"][metric]["value"]
            vb = wb["metrics"][metric]["value"]
            width = max(spread([s[metric] for s in w["segments"]])
                        for w in (wa, wb))
            yield (name, metric, m["unit"], va, vb, vb / va, width,
                   verdict(va, vb, m["better"], m["bound"], width))
        fa = wa["metrics"]["failed_share"]["value"]
        fb = wb["metrics"]["failed_share"]["value"]
        yield (name, "failed_share", "share", fa, fb, float("nan"), 0.0,
               "worse" if fb - fa > FAILED_SHARE_BOUND else "same")


def main(path_a: str, path_b: str, benchmark_json) -> int:
    with open(path_a) as f:
        a = json.load(f)
    with open(path_b) as f:
        b = json.load(f)
    with open(benchmark_json) as f:
        spec = json.load(f)
    if a["cpus"] != b["cpus"]:
        print(f"compare: refusing: {path_a} was measured on {a['cpus']} "
              f"CPUs, {path_b} on {b['cpus']}", file=sys.stderr)
        return 2
    print(f"A = {path_a} (seed {a['seed']}, {a['git_sha'][:12]})")
    print(f"B = {path_b} (seed {b['seed']}, {b['git_sha'][:12]})")
    print(f"{'workload':<14} {'metric':<14} {'A':>12} {'B':>12} "
          f"{'B/A':>7} {'spread':>7}  verdict")
    counts = {"worse": 0, "same": 0, "unresolved": 0}
    for name, metric, unit, va, vb, ratio, width, v in rows(a, b, spec):
        counts[v] += 1
        print(f"{name:<14} {metric:<14} {va:>12.5g} {vb:>12.5g} "
              f"{ratio:>7.3f} {width:>7.3f}  {v}  [{unit}]")
    print(", ".join(f"{n} {k}" for k, n in counts.items()))
    return 1 if counts["worse"] else 0
