"""GIL-escape benchmark: threads-SM vs threads-DM vs procs-DM.

The paper's distributed-memory numbers come from one *process* per rank
(``mpirun``/WMPI daemons); our thread backends keep every rank behind one
GIL, so compute-heavy ranks serialize no matter how many cores the box
has.  This benchmark quantifies the escape:

* **compute kernel** — each rank runs a pure-Python LCG loop (pinned to
  the interpreter, no NumPy release points) and then one ``Allreduce``;
  the job time is the slowest rank's kernel span.  With *N* free cores,
  procs-DM approaches 1× the serial time while both thread backends
  approach N× — the GIL-escape speedup the process backend exists for.
* **pingpong** — 2-rank one-way latency on the thread-DM socketpair path
  vs the cross-process TCP mesh, sizing the cost of real process
  isolation on the wire path.

CLI (writes the BENCH json the roadmap tracks)::

    PYTHONPATH=src python -m repro.bench.gil_escape -n 4 \
        --out BENCH_GIL_ESCAPE.json

Speedup claims are only meaningful when the host actually has the cores:
the json records ``cpus`` (and the schedulable ``cpu_affinity``)
alongside every number, and the benchmark test skips its >=2x assertion
below 4 usable cores.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

import numpy as np

from repro.bench.pingpong import BACKENDS, launch, measure
from repro.bench.report import provenance

#: default LCG iterations per rank (~0.5 s of pure-Python compute each)
DEFAULT_ITERS = 4_000_000

#: pingpong sweep for the latency comparison
PINGPONG_SIZES = (1, 1024, 65536)
PINGPONG_REPS = 60


def usable_cores() -> int:
    """Cores this job may actually schedule on (affinity-aware)."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux
        return os.cpu_count() or 1


def compute_rank_main(iters: int) -> dict:
    """Per-rank body: barrier, GIL-bound LCG loop, Allreduce checksum."""
    from repro.mpijava import MPI
    MPI.Init([])
    w = MPI.COMM_WORLD
    w.Barrier()
    t0 = time.perf_counter()
    x = w.Rank() + 1
    for _ in range(iters):
        x = (x * 1664525 + 1013904223) & 0xFFFFFFFF
    sb = np.array([float(x % 100_000)])
    rb = np.zeros(1)
    w.Allreduce(sb, 0, rb, 0, 1, MPI.DOUBLE, MPI.SUM)
    elapsed = time.perf_counter() - t0
    MPI.Finalize()
    return {"elapsed": elapsed, "checksum": float(rb[0])}


def _serial_kernel(iters: int) -> float:
    t0 = time.perf_counter()
    x = 1
    for _ in range(iters):
        x = (x * 1664525 + 1013904223) & 0xFFFFFFFF
    return time.perf_counter() - t0


def run_compute(backend: str, nprocs: int, iters: int,
                timeout: float = 300.0) -> dict:
    """One backend's compute job; job time = slowest rank's kernel span."""
    rows = launch(backend, nprocs, compute_rank_main, (iters,),
                  timeout=timeout)
    checksums = {r["checksum"] for r in rows}
    if len(checksums) != 1:
        raise AssertionError(f"ranks disagree on the Allreduce checksum: "
                             f"{checksums}")
    return {"backend": backend,
            "job_seconds": max(r["elapsed"] for r in rows),
            "per_rank_seconds": [r["elapsed"] for r in rows],
            "checksum": checksums.pop()}


def run_pingpong(backend: str, sizes=PINGPONG_SIZES,
                 reps: int = PINGPONG_REPS) -> dict:
    """2-rank capi pingpong; one-way seconds per size."""
    rows, _ = measure(backend, "capi", sizes, [reps] * len(sizes))
    return {"backend": backend,
            "one_way_seconds": {str(size): t for size, t in rows}}


def run_benchmark(nprocs: int = 4, iters: int = DEFAULT_ITERS,
                  pingpong: bool = True) -> dict:
    """The full sweep; returns the json-ready report."""
    report = {
        "benchmark": "gil_escape",
        "nprocs": nprocs,
        "iters_per_rank": iters,
        "cpu_affinity": usable_cores(),
        **provenance(),
        "serial_kernel_seconds": _serial_kernel(iters),
        "compute": {},
        "pingpong": {},
    }
    compute = report["compute"]
    for backend in BACKENDS:
        compute[backend] = run_compute(backend, nprocs, iters)
    t_threads = min(compute["threads-SM"]["job_seconds"],
                    compute["threads-DM"]["job_seconds"])
    t_procs = compute["procs-DM"]["job_seconds"]
    report["speedup_procs_vs_best_threads"] = t_threads / t_procs
    report["gil_bound_threads"] = (compute["threads-SM"]["job_seconds"]
                                   / report["serial_kernel_seconds"])
    if pingpong:
        for backend in BACKENDS[1:]:
            report["pingpong"][backend] = run_pingpong(backend)
    return report


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(prog="python -m repro.bench.gil_escape")
    ap.add_argument("-n", "--np", dest="nprocs", type=int, default=4)
    ap.add_argument("--iters", type=int, default=DEFAULT_ITERS)
    ap.add_argument("--no-pingpong", action="store_true")
    ap.add_argument("--out", default="BENCH_GIL_ESCAPE.json")
    opts = ap.parse_args(argv)
    report = run_benchmark(opts.nprocs, opts.iters,
                           pingpong=not opts.no_pingpong)
    with open(opts.out, "w") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
        fh.write("\n")
    cores = report["cpu_affinity"]
    speedup = report["speedup_procs_vs_best_threads"]
    print(f"cores={cores} nprocs={opts.nprocs} "
          f"serial={report['serial_kernel_seconds']:.2f}s "
          + "".join(f"{b}={report['compute'][b]['job_seconds']:.2f}s "
                    for b in BACKENDS) +
          f"speedup={speedup:.2f}x")
    if cores < max(2, opts.nprocs):
        print(f"note: only {cores} schedulable core(s) — the GIL-escape "
              f"speedup needs >= {opts.nprocs} cores to materialize")
    print(f"wrote {opts.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
