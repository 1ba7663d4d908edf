#!/usr/bin/env python3
"""The repo's one benchmark: seven workloads, end to end and layer by layer.

Whole suite, as a person runs it (see README.md in this directory)::

    python benchmarks/suite/run.py --seed 7 --out results.json
    python benchmarks/suite/run.py --seed 7 --trace --out layers.json
    python benchmarks/suite/run.py --smoke --out smoke.json
    python benchmarks/suite/run.py --compare before.json after.json

One workload, as the benchmark driver runs it (``BENCHMARK.json``)::

    python3 benchmarks/suite/run.py --workload pp_small_shm --seed 3 \\
        --seconds 10 --trace 0

which prints every metric by name with its unit and, as the last line of
standard output, one JSON object ``{"correct", "attempted", "failed",
"metrics"}`` — the end-to-end metrics with ``--trace 0``, the per-layer
metrics with ``--trace 1``.

Run shape: a closed loop, one client per rank.  Every workload runs as
``SEGMENTS`` fresh jobs of a fixed operation count (the count follows from
``--seconds``, never from a clock, so both sides of a comparison do the
same work), each confined to one CPU; the whole suite interleaves the
segments of all workloads.  End-to-end numbers come from untraced
segments only.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import signal
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SCHEMA = "repro-suite/1"

#: fresh jobs per workload, and the segment length (set-up and tear-down
#: included) ``Workload.ops`` was sized for; together the suite's default
#: --seconds
SEGMENTS = 5
REFERENCE_SEGMENT_S = 3.0
REFERENCE_SECONDS = SEGMENTS * REFERENCE_SEGMENT_S
SMOKE_SCALE = 0.01

E2E_UNITS = {"setup_s": "s", "op_us_p50": "us", "op_us_p90": "us",
             "ops_per_s": "1/s", "payload_MBps": "MB/s",
             "cpu_us_per_op": "us", "peak_rss_MiB": "MiB",
             "failed_share": "share"}
#: printed beside the metrics, never gated (p99 swings several-fold
#: between identical runs at these sample counts)
DIAGNOSTICS = {"op_us_p99": "us"}


def layer_unit(name: str) -> str:
    """Unit of a per-layer metric, from the suffix of its name."""
    for suffix, unit in (("_us", "us"), ("_per_s", "1/s"), ("_s", "s"),
                         ("_MBps", "MB/s"), ("_share", "share"),
                         ("bytes_per_op", "B"), ("_per_op", "count"),
                         ("_ok", "count"), ("_overhead", "ratio")):
        if name.endswith(suffix):
            return unit
    raise ValueError(f"no unit rule for per-layer metric {name!r}")


def _load_program() -> None:
    """Make ``repro`` (and this directory's modules, for rank processes)
    importable; the benchmark measures the checkout it sits in."""
    if not (ROOT / "src" / "repro").is_dir():
        sys.exit(f"run.py: no program to measure: {ROOT / 'src' / 'repro'} "
                 f"does not exist")
    for path in (str(ROOT / "src"), str(HERE)):
        if path not in sys.path:
            sys.path.insert(0, path)


def _deadline(scale: float) -> float:
    """Job deadline: generous against the planned segment length, small
    enough that five stuck segments still end inside the driver's limit."""
    return 15.0 + 5.0 * REFERENCE_SEGMENT_S * scale


def _with_units(values: dict, unit_of) -> dict:
    return {k: {"value": v, "unit": unit_of(k)} for k, v in values.items()}


def _show(title: str, metrics: dict) -> None:
    print(title)
    for name, m in metrics.items():
        print(f"  {name:<34} {m['value']:>14.6g} {m['unit']}")


# ---------------------------------------------------------------------------
# measuring
# ---------------------------------------------------------------------------

def run_untraced(workloads, scale: float, segments: int, seed: int) -> dict:
    """Segments of all workloads, interleaved round-robin so a noisy
    minute on a shared box is spread over all of them."""
    import harness
    done = {wl.name: [] for wl in workloads}
    for segment in range(segments):
        for wl in workloads:
            seg = harness.run_segment(wl, harness.scaled_ops(wl, scale),
                                      seed, segment, False,
                                      _deadline(scale))
            print(f"# {wl.name} segment {segment}: "
                  + (f"{seg['wall_s']:.2f} s timed" if seg["ok"]
                     else f"FAILED {seg['error']}"), file=sys.stderr)
            done[wl.name].append(seg)
    return {name: harness.summarize(segs) for name, segs in done.items()}


def run_traced(workloads, scale: float, seed: int):
    """Per workload one untraced control segment and one traced segment
    (their ``ops_per_s`` ratio is the tracing overhead), then the
    workload-independent layer measurements.  Returns those shared layer
    metrics, each workload's own per-layer metrics, the span sets for the
    Chrome trace, and the attempted/failed tally per workload."""
    import harness
    import layers
    per_workload, jobs, tally = {}, [], {}
    for wl in workloads:
        ops = harness.scaled_ops(wl, scale)
        control = harness.run_segment(wl, ops, seed, 0, False,
                                      _deadline(scale))
        traced = harness.run_segment(wl, ops, seed, 0, True,
                                     _deadline(scale))
        tally[wl.name] = {
            "attempted": 2 * ops,
            "failed": sum(ops for s in (control, traced) if not s["ok"]),
            "errors": [s["error"] for s in (control, traced)
                       if not s["ok"]]}
        if not (control["ok"] and traced["ok"]):
            continue
        metrics = harness.counter_metrics(traced)
        metrics.update(harness.api_metrics(traced))
        # traced / untraced ops_per_s, the operation count being equal
        metrics["harness.trace_overhead"] = \
            control["wall_s"] / traced["wall_s"]
        per_workload[wl.name] = metrics
        jobs.append({"workload": wl.name, "ranks": traced["spans"]})
    return layers.measure_all(scale, seed), per_workload, jobs, tally


def stamp(seed: int, seconds: float, segments: int, workloads) -> dict:
    """What a number needs beside it to be reproduced."""
    import numpy
    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True,
                             check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        sha = "unknown"
    return {
        "schema": SCHEMA, "seed": seed, "seconds": seconds,
        "segments": segments, "git_sha": sha,
        "cpus": os.cpu_count(), "platform": platform.platform(),
        "python": platform.python_version(), "numpy": numpy.__version__,
        "started": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
        # the workloads pin REPRO_SHM themselves; anything else set here
        # was in effect for every job
        "env": {k: v for k, v in sorted(os.environ.items())
                if k.startswith("REPRO_")},
        "ranks": {wl.name: wl.ranks for wl in workloads},
        "carrier": {wl.name: {None: "inproc", "0": "tcp", "1": "shm"}[wl.shm]
                    for wl in workloads},
    }


def _e2e_record(summary: dict) -> dict:
    """One workload's end-to-end block of the results file."""
    metrics = dict(summary["metrics"])
    diag = {k: metrics.pop(k) for k in DIAGNOSTICS if k in metrics}
    return {
        "metrics": _with_units(metrics, E2E_UNITS.__getitem__),
        "diagnostics": {**_with_units(diag, DIAGNOSTICS.__getitem__),
                        "samples": {"value": summary["samples"],
                                    "unit": "count"}},
        # per-segment values: --compare takes each metric's spread from
        # these
        "segments": summary["segments"],
        "attempted": summary["attempted"], "failed": summary["failed"],
        "errors": summary["errors"],
    }


def _write_trace(path: str, jobs: list) -> None:
    from spans import chrome_trace
    with open(path, "w") as f:
        json.dump(chrome_trace(jobs), f)
    print(f"# Chrome trace: {path}", file=sys.stderr)


# ---------------------------------------------------------------------------
# leaving no process behind
# ---------------------------------------------------------------------------

PR_SET_CHILD_SUBREAPER = 36
REAP_GRACE_S = 10.0


def adopt_orphans() -> None:
    """Make this process the parent of every orphaned descendant.

    The launcher waits for its rank processes, but each rank that maps a
    shared-memory segment has a ``multiprocessing`` resource tracker of
    its own, which ends a moment *after* the rank does; without this it
    is handed to init and may still be there when this command returns."""
    try:
        import ctypes
        ctypes.CDLL(None).prctl(PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0)
    except (OSError, AttributeError):  # not Linux: nothing to adopt with
        pass


def _children() -> list[int]:
    """Direct children of this process, zombies included, from /proc."""
    me, found = os.getpid(), []
    for stat in Path("/proc").glob("[0-9]*/stat"):
        try:
            # pid (comm) state ppid ...; comm may hold spaces and brackets
            fields = stat.read_text().rpartition(")")[2].split()
        except OSError:  # ended while we looked
            continue
        if int(fields[1]) == me:
            found.append(int(stat.parent.name))
    return found


def reap_descendants() -> None:
    """Wait until every process this run started has ended, on every path
    out of it; what is still alive after ``REAP_GRACE_S`` is killed."""
    tracker = sys.modules.get("multiprocessing.resource_tracker")
    if tracker is not None:
        # this process's own tracker (the in-process shm carrier starts
        # one) runs until its pipe closes, normally at interpreter exit
        try:
            tracker._resource_tracker._stop()
        except Exception:  # noqa: BLE001 - private; the loop below covers
            pass
    deadline = time.monotonic() + REAP_GRACE_S
    while True:
        try:
            pid, _ = os.waitpid(-1, os.WNOHANG)
        except ChildProcessError:
            return
        if pid:
            continue
        if time.monotonic() > deadline:
            # each pass: a killed child's own children arrive here next
            for child in _children():
                with contextlib.suppress(ProcessLookupError):
                    os.kill(child, signal.SIGKILL)
        time.sleep(0.005)


def suite(args) -> int:
    import harness
    workloads = harness.WORKLOADS
    segments = 1 if args.smoke else SEGMENTS
    scale = SMOKE_SCALE if args.smoke else args.seconds / REFERENCE_SECONDS
    results = stamp(args.seed, args.seconds, segments, workloads)
    results["smoke"] = bool(args.smoke)
    ok = True
    if args.smoke or not args.trace:
        e2e = run_untraced(workloads, scale, segments, args.seed)
        results["workloads"] = {n: _e2e_record(s) for n, s in e2e.items()}
        for name, rec in results["workloads"].items():
            _show(f"== {name} (end to end, best of {segments} segments, "
                  f"{rec['diagnostics']['samples']['value']} samples)",
                  {**rec["metrics"], **rec["diagnostics"]})
            ok &= rec["failed"] == 0
    if args.smoke or args.trace:
        shared, per_layer, jobs, tally = run_traced(workloads, scale,
                                                    args.seed)
        # a workload's per-layer metrics are "layers" plus its own block
        results["layers"] = _with_units(shared, layer_unit)
        results["per_layer"] = {n: _with_units(m, layer_unit)
                                for n, m in per_layer.items()}
        results["per_layer_tally"] = tally
        ok &= all(t["failed"] == 0 for t in tally.values())
        _show("== layers (traced run, workload-independent)",
              results["layers"])
        for name, metrics in results["per_layer"].items():
            _show(f"== {name} (per layer, traced run)", metrics)
        trace_out = args.trace_out or (
            str(Path(args.out).with_suffix(".trace.json")) if args.out
            else None)
        if trace_out:
            _write_trace(trace_out, jobs)
    if args.out:
        with open(args.out, "w") as f:
            json.dump(results, f, indent=1)
        print(f"# results: {args.out}", file=sys.stderr)
    return 0 if ok else 1


def driver(args) -> int:
    """One workload, the benchmark driver's contract (module docstring)."""
    import harness
    if args.workload not in harness.BY_NAME:
        sys.exit(f"run.py: unknown workload {args.workload!r}; one of "
                 f"{', '.join(harness.BY_NAME)}")
    wl = harness.BY_NAME[args.workload]
    scale = args.seconds / REFERENCE_SECONDS
    if args.trace:
        shared, per_layer, jobs, tally = run_traced([wl], scale, args.seed)
        tally = tally[wl.name]
        if wl.name not in per_layer:
            sys.exit(f"run.py: {wl.name} traced run failed: "
                     f"{tally['errors']}")
        metrics = _with_units({**shared, **per_layer[wl.name]}, layer_unit)
        if args.trace_out:
            _write_trace(args.trace_out, jobs)
    else:
        summary = run_untraced([wl], scale, SEGMENTS, args.seed)[wl.name]
        tally = summary
        if summary["failed"] == summary["attempted"]:
            sys.exit(f"run.py: every segment of {wl.name} failed: "
                     f"{summary['errors']}")
        rec = _e2e_record(summary)
        _show(f"== {wl.name} diagnostics (not gated)", rec["diagnostics"])
        metrics = rec["metrics"]
        # carried by "failed"/"attempted" below; 0 on a healthy run
        del metrics["failed_share"]
    _show(f"== {wl.name} ({'per layer' if args.trace else 'end to end'})",
          metrics)
    print(json.dumps({"correct": tally["failed"] == 0,
                      "attempted": tally["attempted"],
                      "failed": tally["failed"], "metrics": metrics}))
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", help="run this one workload and print "
                    "the driver's result line")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=None,
                    help="measuring time per workload the operation "
                    "counts are scaled to (suite default "
                    f"{REFERENCE_SECONDS:g}, driver default 10)")
    ap.add_argument("--trace", nargs="?", const=1, default=0, type=int,
                    choices=(0, 1), help="make the traced run that "
                    "produces the per-layer metrics")
    ap.add_argument("--smoke", action="store_true",
                    help="1 segment at 1%% of the operation counts, "
                    "untraced and traced, under a minute")
    ap.add_argument("--out", help="write the results file here")
    ap.add_argument("--trace-out", help="write the Chrome trace here "
                    "(suite default: beside --out)")
    ap.add_argument("--compare", nargs=2, metavar=("A.json", "B.json"),
                    help="apply every metric's bound to two results files")
    args = ap.parse_args(argv)
    if args.compare:
        import compare
        return compare.main(*args.compare, ROOT / "BENCHMARK.json")
    _load_program()
    adopt_orphans()
    try:
        if args.workload:
            args.seconds = args.seconds or 10.0
            return driver(args)
        args.seconds = args.seconds or REFERENCE_SECONDS
        return suite(args)
    finally:
        reap_descendants()


if __name__ == "__main__":
    sys.exit(main())
