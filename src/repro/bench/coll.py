"""Collective latency beside its round model -> ``BENCH_COLL.json``.

``python -m repro.bench.coll`` times every ``allreduce`` / ``bcast`` /
``barrier`` algorithm (:func:`algorithm_overrides`) and ``alltoall``, 8 B
to 4 MiB, on 2 and 4 ranks, threads-DM and procs-DM over TCP, the whole
sweep confined to one CPU.  Each row carries the algorithm's *structure*
read off the schedule it built (communication rounds on the deepest
rank, messages sent per rank) and a *model*: rounds x the one-way
point-to-point latency at the collective's size measured in the same job
(an overestimate where an algorithm cuts the vector into chunks or
segments) — so the file states the factor a collective costs over its
rounds, not just a time.  Calls go through the runtime-level entry
points (what ``capi`` calls; the binding adds ~8 us on either side).
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time

import numpy as np

SCHEMA = "repro-coll/1"
SIZES = (8, 1024, 64 * 1024, 256 * 1024, 4 * 1024 * 1024)
BACKENDS = ("threads-DM", "procs-DM tcp")
ROW_KEYS = ("backend", "p", "collective", "algorithm", "bytes", "us",
            "rounds", "sends_per_rank", "p2p_us", "model_us", "factor")


def _best_us(fn, nbytes: int, sync) -> float:
    """Best of 3 passes of per-call time, every pass fenced by a barrier."""
    reps = 40 if nbytes <= 64 * 1024 else 8 if nbytes < 1 << 20 else 3
    best = float("inf")
    for _ in range(3):
        sync()
        t0 = time.perf_counter()
        for _ in range(reps):
            fn()
        best = min(best, (time.perf_counter() - t0) / reps)
    return best * 1e6


def structure_of(sched) -> tuple[int, int]:
    """One rank's (communication rounds, messages sent) in a schedule."""
    from repro.runtime.nbc import Compute
    return (sum(any(type(op) is not Compute for op in rnd)
                for rnd in sched.rounds), sched.comm_ops()[0])


def sweep_body():
    """One job, every case: ``[(case, us, rounds, sends)]`` per rank and
    the same-sitting pingpong (ranks 0 and 1)."""
    from repro.datatypes.primitives import DOUBLE
    from repro.runtime import nbc, reduce_ops
    from repro.runtime.collective import (ALGORITHM_CHOICES, algorithm_overrides,
                                          allreduce, alltoall, barrier, bcast)
    from repro.runtime.engine import current_runtime
    comm = current_runtime().comm_world
    rank, p = comm.rank, comm.size

    def sync():
        barrier.barrier(comm)

    rows, p2p = [], {}
    for nbytes in SIZES:
        n = nbytes // 8
        a, b = np.ones(n), np.zeros(n)
        if rank < 2:                    # one-way = half a round trip
            def pingpong():
                if rank == 0:
                    comm.send(a, 0, n, DOUBLE, 1, 1)
                    comm.recv(b, 0, n, DOUBLE, 1, 2)
                else:
                    comm.recv(b, 0, n, DOUBLE, 0, 1)
                    comm.send(a, 0, n, DOUBLE, 0, 2)
            p2p[nbytes] = _best_us(pingpong, nbytes, lambda: None) / 2
        plans = {
            "allreduce": lambda: allreduce.plan_allreduce(
                comm, a, 0, b, 0, n, DOUBLE, reduce_ops.SUM),
            "bcast": lambda: bcast.plan_bcast(comm, a, 0, n, DOUBLE, 0),
            "alltoall": lambda: alltoall.plan_alltoall(
                comm, a, 0, n // p, DOUBLE, b, 0, n // p, DOUBLE),
        }
        if nbytes == SIZES[0]:
            plans["barrier"] = lambda: barrier.plan_barrier(comm)
        for coll, plan in plans.items():
            for alg in ALGORITHM_CHOICES.get(coll, ("pairwise",)):
                with algorithm_overrides(**({coll: alg} if coll in
                                            ALGORITHM_CHOICES else {})):
                    sched = nbc.Schedule()
                    plan()[1](sched)    # built on every rank, run on none
                    us = _best_us(lambda: nbc.run(comm, *plan()), nbytes,
                                  sync)
                rows.append(((coll, alg, 0 if coll == "barrier" else nbytes),
                             us, *structure_of(sched)))
    sync()
    return rows, p2p


def _run_job(backend: str, p: int):
    from repro import mpirun, procrun
    if backend == "threads-DM":
        return mpirun(p, sweep_body, transport="socket", timeout=600.0)
    os.environ["REPRO_SHM"] = "0"
    try:
        return procrun(p, sweep_body, timeout=600.0)
    finally:
        del os.environ["REPRO_SHM"]


def run(log=print) -> dict:
    from repro import config
    allowed = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {max(allowed)})     # rank processes inherit it
    rows = []
    try:
        for backend in BACKENDS:
            for p in (2, 4):
                ranks = _run_job(backend, p)
                p2p = ranks[0][1]
                for case in zip(*(rows_of for rows_of, _ in ranks)):
                    coll, alg, nbytes = case[0][0]
                    us, rounds, sends = (max(c[k] for c in case)
                                         for k in (1, 2, 3))
                    lat = p2p[nbytes or SIZES[0]]
                    rows.append(dict(zip(ROW_KEYS, (
                        backend, p, coll, alg, nbytes, round(us, 1), rounds,
                        sends, round(lat, 1), round(rounds * lat, 1),
                        round(us / (rounds * lat), 2)))))
                log(f"{backend} p={p}: {len(ranks[0][0])} cases")
    finally:
        os.sched_setaffinity(0, allowed)
    sha = subprocess.run(["git", "describe", "--always", "--dirty"],
                         capture_output=True, text=True).stdout.strip()
    return {"schema": SCHEMA, "created_unix": int(time.time()),
            "python": sys.version.split()[0], "cpus": os.cpu_count(),
            "confined_to_cpus": 1, "git_sha": sha or None,
            "config": config.effective(), "rows": rows}


if __name__ == "__main__":  # pragma: no cover - manual invocation
    out = sys.argv[1] if len(sys.argv) > 1 else "BENCH_COLL.json"
    with open(out, "w") as fh:
        json.dump(run(), fh, indent=1)
    print(f"wrote {out}")
