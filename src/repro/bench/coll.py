"""Collective latency beside its round model -> ``BENCH_COLL.json``.

``python -m repro.bench.coll`` times every ``allreduce`` / ``bcast`` /
``barrier`` / ``allgather`` algorithm (:func:`algorithm_overrides`) and
``alltoall``, 8 B to 4 MiB, on 2 and 4 ranks, threads-DM and procs-DM
over TCP, the whole sweep confined to one CPU.  ``bytes`` is the vector
each rank passes; for ``alltoall`` and ``allgather`` that is the whole
receive buffer, ``bytes / p`` from each rank.  Each row carries the
algorithm's *structure* read off the schedule it built (communication
rounds on the deepest rank, messages sent per rank) and a *model*:
rounds x the one-way point-to-point latency at the collective's size
measured in the same job (an overestimate where an algorithm moves only
blocks of the vector) — so the file states the factor a collective costs
over its rounds, not just a time.  Calls go through the runtime-level entry
points (what ``capi`` calls; the binding adds ~8 us on either side).
"""

from __future__ import annotations

import json
import os
import sys
import time

import numpy as np

SCHEMA = "repro-coll/1"
SIZES = (8, 1024, 64 * 1024, 256 * 1024, 4 * 1024 * 1024)
BACKENDS = ("threads-DM", "procs-DM tcp")
ROW_KEYS = ("backend", "p", "collective", "algorithm", "bytes", "us",
            "rounds", "sends_per_rank", "p2p_us", "model_us", "factor")


def _reps(nbytes: int) -> int:
    return 40 if nbytes <= 64 * 1024 else 8 if nbytes < 1 << 20 else 3


def _best_us(fn, nbytes: int, sync) -> float:
    """Best of 3 passes of per-call time, every pass fenced by a barrier."""
    reps = _reps(nbytes)
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
    the same-sitting one-way seconds per size (rank 0's; ranks 0 and 1
    run the pingpong, the others only join its fences)."""
    from repro.bench.pingpong import one_way
    from repro.datatypes.primitives import DOUBLE
    from repro.runtime import nbc, reduce_ops
    from repro.runtime.collective import (ALGORITHM_CHOICES, algorithm_overrides,
                                          allgather, allreduce, alltoall,
                                          barrier, bcast)
    from repro.runtime.engine import current_runtime
    comm = current_runtime().comm_world
    rank, p = comm.rank, comm.size

    def sync():
        nbc.run(comm, *barrier.plan_barrier(comm))

    rows, p2p = [], {}
    for nbytes in SIZES:
        n = nbytes // 8
        a, b = np.ones(n), np.zeros(n)
        p2p[nbytes] = one_way("communicator", rank, np.arange(1.0, n + 1),
                              n, DOUBLE, _reps(nbytes), trials=3)
        plans = {
            "allreduce": lambda: allreduce.plan_allreduce(
                comm, a, 0, b, 0, n, DOUBLE, reduce_ops.SUM),
            "bcast": lambda: bcast.plan_bcast(comm, a, 0, n, DOUBLE, 0),
            "alltoall": lambda: alltoall.plan_alltoall(
                comm, a, 0, n // p, DOUBLE, b, 0, n // p, DOUBLE),
            "allgather": lambda: allgather.plan_allgather(
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


def run(log=print) -> dict:
    from repro.bench.pingpong import launch
    from repro.bench.report import provenance
    allowed = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {max(allowed)})     # rank processes inherit it
    rows = []
    try:
        for backend in BACKENDS:
            kind, _, carrier = backend.partition(" ")
            for p in (2, 4):
                ranks = launch(kind, p, sweep_body, carrier=carrier or None,
                               timeout=600.0)
                p2p = ranks[0][1]
                for case in zip(*(rows_of for rows_of, _ in ranks)):
                    coll, alg, nbytes = case[0][0]
                    us, rounds, sends = (max(c[k] for c in case)
                                         for k in (1, 2, 3))
                    lat = p2p[nbytes or SIZES[0]] * 1e6
                    rows.append(dict(zip(ROW_KEYS, (
                        backend, p, coll, alg, nbytes, round(us, 1), rounds,
                        sends, round(lat, 1), round(rounds * lat, 1),
                        round(us / (rounds * lat), 2)))))
                log(f"{backend} p={p}: {len(ranks[0][0])} cases")
    finally:
        os.sched_setaffinity(0, allowed)
    return {"schema": SCHEMA, **provenance(), "confined_to_cpus": 1,
            "rows": rows}


if __name__ == "__main__":  # pragma: no cover - manual invocation
    out = sys.argv[1] if len(sys.argv) > 1 else "BENCH_COLL.json"
    with open(out, "w") as fh:
        json.dump(run(), fh, indent=1)
    print(f"wrote {out}")
