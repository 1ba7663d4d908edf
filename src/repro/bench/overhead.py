"""Tracing-overhead benchmark: what does observability cost?

Three modes of the same 8 B capi pingpong (the latency-dominated kernel
where per-call overhead is most visible):

* ``baseline`` — tracing never enabled this run;
* ``disabled`` — tracing was enabled once, then disabled again, so every
  instrumentation point executes its ``if TRACE.enabled:`` fast path;
* ``enabled``  — tracing on, events recorded into the in-memory rings.

The acceptance bar is the disabled mode: instrumentation that is off must
cost no more than :data:`OVERHEAD_LIMIT` (3%) over never-instrumented.
Trials are interleaved across modes so clock drift and CPU-frequency
excursions hit all modes alike, and each mode reports its best trial —
the standard way to compare code paths through scheduler noise.

CLI: ``python -m repro.bench.overhead [-o BENCH_OVERHEAD.json]``.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from repro.bench.pingpong import _pingpong_capi
from repro.executor.runner import MPIExecutor
from repro.obs.trace import TRACE

SCHEMA = "repro-overhead/1"
MODES = ("baseline", "disabled", "enabled")
OVERHEAD_LIMIT = 1.03       # disabled-mode budget vs baseline
SIZE = 8
REPS = 2000
TRIALS = 5


def _enter_mode(mode: str) -> None:
    if mode == "enabled":
        TRACE.enable()
    elif mode == "disabled":
        TRACE.enable()      # flip once so module state mirrors a real
        TRACE.disable()     # enable->disable cycle, then measure off
    else:
        TRACE.disable()


def _leave_mode() -> None:
    TRACE.disable()
    TRACE.reset()


def _one_trial(size: int, reps: int) -> float:
    """One pingpong job; returns the one-way latency in seconds."""
    with MPIExecutor(2, transport="inproc") as ex:
        times = ex.run(lambda: _pingpong_capi_rank(size, reps))
    return max(times)       # both ranks time the same loop; take the
    # conservative reading


def _pingpong_capi_rank(size: int, reps: int) -> float:
    from repro.runtime.engine import current_runtime
    return _pingpong_capi(current_runtime().world_rank, size, reps)


def run(size: int = SIZE, reps: int = REPS, trials: int = TRIALS,
        log=print) -> list[dict]:
    """Interleaved trials; one row per mode with the best one-way time."""
    best: dict[str, float] = {m: float("inf") for m in MODES}
    for trial in range(trials):
        for mode in MODES:
            _enter_mode(mode)
            try:
                one_way = _one_trial(size, reps)
            finally:
                _leave_mode()
            best[mode] = min(best[mode], one_way)
            if log:
                log(f"trial {trial + 1}/{trials} {mode:>8}: "
                    f"{one_way * 1e6:8.3f} us one-way")
    return [{"mode": mode, "size_bytes": size, "reps": reps,
             "trials": trials, "one_way_us": round(best[mode] * 1e6, 3)}
            for mode in MODES]


def build_report(rows: list[dict]) -> dict:
    by_mode = {r["mode"]: r for r in rows}
    base = by_mode["baseline"]["one_way_us"]
    overhead = {
        "disabled_vs_baseline": round(
            by_mode["disabled"]["one_way_us"] / base, 4),
        "enabled_vs_baseline": round(
            by_mode["enabled"]["one_way_us"] / base, 4),
    }
    return {"schema": SCHEMA, "limit_disabled": OVERHEAD_LIMIT,
            "cpus": os.cpu_count(), "results": rows, "overhead": overhead}


def validate_report(report: dict) -> list[str]:
    """Structural checks; returns a list of problems (empty = valid)."""
    problems = []
    if report.get("schema") != SCHEMA:
        problems.append(f"schema != {SCHEMA!r}")
        return problems
    rows = report.get("results")
    if not isinstance(rows, list) or not rows:
        return problems + ["results missing or empty"]
    modes = set()
    for i, row in enumerate(rows):
        for field in ("mode", "size_bytes", "reps", "one_way_us"):
            if field not in row:
                problems.append(f"results[{i}] missing {field!r}")
        mode = row.get("mode")
        if mode not in MODES:
            problems.append(f"results[{i}] unknown mode {mode!r}")
        modes.add(mode)
        if not row.get("one_way_us", 0) > 0:
            problems.append(f"results[{i}] nonpositive one_way_us")
    if not modes.issuperset(MODES):
        problems.append(f"modes incomplete: have {sorted(map(str, modes))}")
    over = report.get("overhead", {})
    for key in ("disabled_vs_baseline", "enabled_vs_baseline"):
        if not isinstance(over.get(key), (int, float)):
            problems.append(f"overhead.{key} missing")
    limit = report.get("limit_disabled")
    if not isinstance(limit, (int, float)):
        problems.append("limit_disabled missing")
    return problems


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(prog="repro.bench.overhead",
                                 description=__doc__.splitlines()[0])
    ap.add_argument("-o", "--output", default="BENCH_OVERHEAD.json")
    ap.add_argument("--size", type=int, default=SIZE)
    ap.add_argument("--reps", type=int, default=REPS)
    ap.add_argument("--trials", type=int, default=TRIALS)
    opts = ap.parse_args(argv)
    rows = run(size=opts.size, reps=opts.reps, trials=opts.trials)
    report = build_report(rows)
    for p in validate_report(report):  # pragma: no cover - internal bug
        print(f"INTERNAL SCHEMA ERROR: {p}", file=sys.stderr)
        return 2
    with open(opts.output, "w") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
        fh.write("\n")
    over = report["overhead"]
    print(f"disabled/baseline = {over['disabled_vs_baseline']:.4f} "
          f"(limit {OVERHEAD_LIMIT}), enabled/baseline = "
          f"{over['enabled_vs_baseline']:.4f} -> {opts.output}")
    return 0 if over["disabled_vs_baseline"] <= OVERHEAD_LIMIT else 1


if __name__ == "__main__":
    sys.exit(main())
