"""Observability smoke: a traced 4-rank process-backend job.

Runs a small SPMD program — one rendezvous-sized send, one large
Bcast, an allreduce, a barrier — as real OS processes with tracing on,
then validates the merged Chrome trace the launcher wrote.  CI runs
this to prove the whole collection pipeline (worker rings -> control
plane -> merged ``trace.json``) end to end; locally it leaves a trace
you can open at https://ui.perfetto.dev.

Run:  REPRO_TRACE=/tmp/obs python examples/obs_smoke.py [nprocs]
      (defaults: nprocs=4; REPRO_TRACE defaults to ./obs-trace)
"""

from __future__ import annotations

import json
import os
import sys

import numpy as np

from repro import procrun
from repro.mpijava import MPI
from repro.obs import export

BIG = 2 * 1024 * 1024       # rendezvous-sized pt2pt payload
BCAST = 512 * 1024          # large-message (binomial) broadcast


def body():
    MPI.Init([])
    w = MPI.COMM_WORLD
    rank, size = w.Rank(), w.Size()
    buf = np.zeros(BIG, dtype=np.int8)
    if rank == 0:
        w.Send(buf, 0, BIG, MPI.BYTE, 1, 42)
    elif rank == 1:
        w.Recv(buf, 0, BIG, MPI.BYTE, 0, 42)
    blob = np.full(BCAST, rank, dtype=np.int8)
    w.Bcast(blob, 0, BCAST, MPI.BYTE, 0)
    assert not blob.any()       # root's zeros reached every rank
    one = np.ones(1)
    total = np.zeros(1)
    w.Allreduce(one, 0, total, 0, 1, MPI.DOUBLE, MPI.SUM)
    assert total[0] == float(size)
    w.Barrier()
    MPI.Finalize()
    return rank


def main(argv=None) -> int:
    args = list(sys.argv[1:] if argv is None else argv)
    nprocs = int(args[0]) if args else 4
    trace_dir = os.environ.setdefault("REPRO_TRACE", "obs-trace")

    ranks = procrun(nprocs, body, timeout=120.0)
    assert sorted(ranks) == list(range(nprocs)), ranks

    merged = os.path.join(trace_dir, export.MERGED_NAME)
    with open(merged) as fh:
        obj = json.load(fh)
    problems = export.validate_chrome(obj)
    for p in problems:
        print(f"INVALID: {p}", file=sys.stderr)
    if problems:
        return 1
    lanes = {e["pid"] for e in obj["traceEvents"] if e["ph"] != "M"}
    assert lanes == set(range(nprocs)), lanes
    names = {e.get("name") for e in obj["traceEvents"]}
    for expected in ("wire.rts", "wire.rndv", "mailbox.match",
                     "coll.algo", "Bcast.round"):
        assert expected in names, (expected, sorted(names)[:40])
    print(f"ok: {len(obj['traceEvents'])} events across "
          f"{len(lanes)} rank lanes -> {merged}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
