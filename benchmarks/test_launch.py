"""Start-up is paid per job, not per rank.

``ProcExecutor`` starts one interpreter per job — a zygote that imports
the runtime once and forks the ranks — so a 4-rank job must cost about
what a 1-rank job costs.  When every rank was its own ``python -m``, it
cost ranks x (interpreter + import graph): 2.7-2.9 x here.  Stated as a
ratio of whole no-op jobs measured back to back on one CPU, as the gate
(``benchmarks/suite``) confines its jobs, so a slower box moves both
sides and not the bound.

Deliberately light at module level: ranks import this file to resolve
``noop_body``, and what it imports the zygote already has.
"""

import os
import time

from repro.executor.procrunner import ProcExecutor
from repro.mpijava import MPI

#: 4 ranks may cost this many 1-rank jobs (per-rank spawn: 2.7-2.9,
#: forked from one zygote: 1.1-1.4)
BOUND = 1.8


def noop_body():
    MPI.Init([])
    MPI.COMM_WORLD.Barrier()
    MPI.Finalize()


def best_job_s(nprocs: int, tries: int = 3) -> float:
    """Best wall time of a whole job: spawn to last process reaped."""
    best = float("inf")
    for _ in range(tries):
        t0 = time.perf_counter()
        with ProcExecutor(nprocs) as ex:
            ex.run(noop_body, timeout=60.0)
        best = min(best, time.perf_counter() - t0)
    return best


def test_a_4_rank_job_costs_under_1p8_1_rank_jobs():
    allowed = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {max(allowed)})
    try:
        one, four = best_job_s(1), best_job_s(4)
    finally:
        os.sched_setaffinity(0, allowed)
    print(f"\nno-op job on one CPU, best of 3: 1 rank {one:.3f} s, "
          f"4 ranks {four:.3f} s ({four / one:.2f} x)")
    assert four <= BOUND * one, \
        f"4 ranks {four:.3f} s > {BOUND} x 1 rank {one:.3f} s"
