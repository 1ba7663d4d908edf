"""Start-up is paid once per launcher, not per job or per rank.

``ProcExecutor`` keeps one zygote — an interpreter that has imported the
runtime — and has it fork each job's proxy, which imports the target
once, wires the job and forks the ranks, so a job right after another
one costs forks, that import, the wiring and the ranks' exit: 43-62 ms
for a 4-rank no-op job over TCP on one CPU of a 2-vCPU VM, 0.13-0.16
interpreter starts (a bare ``python -c`` of the zygote's import set,
0.28-0.38 s), where a zygote per job paid about two starts.  Of that, a
rank spends 4-7 ms of CPU and ~860-1 020 minor page faults between its
fork and its target (~950-1 090 while it dialed the launcher and its
peers itself, ~1 340 while its first dial imported the ``idna`` codec
and a second thread beat its heartbeat); the warm-job test prints both.
What three more ranks add to a 1-rank job was 0.8-1.6 starts with a
zygote per job, and three and more when every rank was its own
``python -m``.  All times are whole jobs measured alternately on one
CPU, as the gate (``benchmarks/suite``) confines its jobs, so a slower
box — or a slow few seconds of this one — moves both sides and not the
bound.

(The property used to be stated as a ratio of the two jobs, bound 1.8.
Until PR 24 the 1-rank job took 0.49 s, 0.2 s of it in
``universe.close()``: its rank had no channels and still started a pump,
which sat out an empty selector's timeout — asserted gone below.  With
the denominator halved an unchanged 4-rank job reads 1.8-2.9 x, too wide
to put a bound between it and per-rank spawn's 3.7; the difference,
measured in interpreter starts, has no such denominator.)

Deliberately light at module level: ranks import this file to resolve
``noop_body``, and what it imports the zygote already has.
"""

import os
import subprocess
import sys
import time

from repro.executor.procrunner import ProcExecutor, _child_env
from repro.mpijava import MPI

#: three more ranks may cost this many interpreter starts (forked from
#: one zygote per job: 0.8-1.6 over 14 runs; one interpreter per rank: 3
#: and more)
BOUND = 2.0

#: a 4-rank job right after another may cost this many interpreter starts
WARM_BOUND = 0.5

#: CPU seconds the heavy target spends in its import
IMPORT_BURN_S = 0.040

#: a warm 4-rank job of the heavy target may cost the warm no-op job plus
#: this many of its imports (the job's proxy imports it once; when each
#: rank imported it, four)
IMPORT_BOUND = 2

#: a target module that burns ``IMPORT_BURN_S`` of CPU at import
HEAVY_TARGET = f"""
import time
from repro.mpijava import MPI

t0 = time.process_time()
while time.process_time() - t0 < {IMPORT_BURN_S}:
    pass


def body():
    MPI.Init([])
    MPI.COMM_WORLD.Barrier()
    MPI.Finalize()
"""

#: a warm 4-rank job with shm lanes may cost this many warm TCP jobs
#: (its ranks create and map segments and fork nothing: 48-50 ms
#: against 45-47 ms over TCP on one CPU; 183-235 ms while each rank
#: started ``multiprocessing``'s resource tracker for its first segment)
SHM_BOUND = 2.0


def noop_body():
    MPI.Init([])
    MPI.COMM_WORLD.Barrier()
    MPI.Finalize()


def startup_body():
    """The no-op job, returning what this rank spent from its fork to
    here: (CPU seconds, minor page faults).  A forked child's counters
    start at 0."""
    cpu = time.process_time()
    with open("/proc/self/stat") as f:
        # pid (comm) state ...: minflt is field 10, the 8th after comm
        faults = int(f.read().rpartition(")")[2].split()[7])
    noop_body()
    return cpu, faults


def job(nprocs: int, target=noop_body) -> tuple[float, list]:
    """Wall time of a whole job, spawn to last process reaped, and its
    ranks' results."""
    t0 = time.perf_counter()
    with ProcExecutor(nprocs) as ex:
        out = ex.run(target, timeout=60.0)
    return time.perf_counter() - t0, out


def job_s(nprocs: int, target=noop_body) -> float:
    """Wall time of a whole job: spawn to last process reaped."""
    return job(nprocs, target)[0]


def interpreter_start_s() -> float:
    """Wall time of an interpreter that imports what the zygote does."""
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c",
                    "import repro.executor.procworker, repro.mpijava"],
                   env=_child_env(), check=True)
    return time.perf_counter() - t0


def test_three_more_ranks_cost_under_two_interpreter_starts():
    allowed = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {max(allowed)})
    try:
        start = one = four = float("inf")
        for _ in range(3):      # alternately: all see the same seconds
            start = min(start, interpreter_start_s())
            one, four = min(one, job_s(1)), min(four, job_s(4))
    finally:
        os.sched_setaffinity(0, allowed)
    print(f"\nno-op job on one CPU, best of 3: 1 rank {one:.3f} s, "
          f"4 ranks {four:.3f} s, interpreter start {start:.3f} s "
          f"({(four - one) / start:.2f} starts for 3 ranks)")
    assert four - one <= BOUND * start, \
        f"3 more ranks cost {four - one:.3f} s > {BOUND} x {start:.3f} s"


def test_a_warm_four_rank_job_costs_under_half_an_interpreter_start(
        monkeypatch):
    """Over TCP, and with shm lanes within ``SHM_BOUND`` of that: a
    segment is mapped without ``multiprocessing``'s resource tracker, so
    the lanes add no process to a job."""
    allowed = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {max(allowed)})
    startups = {"tcp": [], "shm": []}
    try:
        start = warm = shm = float("inf")
        for _ in range(3):      # alternately: all see the same seconds
            start = min(start, interpreter_start_s())
            monkeypatch.setenv("REPRO_SHM", "0")
            job_s(4)
            took, ranks = job(4, startup_body)
            warm = min(warm, took)
            startups["tcp"] += ranks
            # a change of environment starts a fresh zygote: warm it
            monkeypatch.setenv("REPRO_SHM", "1")
            job_s(4)
            took, ranks = job(4, startup_body)
            shm = min(shm, took)
            startups["shm"] += ranks
    finally:
        os.sched_setaffinity(0, allowed)
    print(f"\nwarm 4-rank no-op job on one CPU, best of 3: "
          f"{warm * 1e3:.0f} ms over TCP ({warm / start:.2f} interpreter "
          f"starts of {start:.3f} s), {shm * 1e3:.0f} ms with shm lanes "
          f"({shm / warm:.2f} x)")
    for carrier, ranks in startups.items():
        cpu = sorted(c * 1e3 for c, _ in ranks)
        faults = sorted(f for _, f in ranks)
        print(f"a rank's fork to target entry, {carrier}, {len(ranks)} "
              f"ranks: {cpu[0]:.1f}-{cpu[-1]:.1f} ms CPU, "
              f"{faults[0]}-{faults[-1]} minor faults")
    assert warm <= WARM_BOUND * start, \
        f"a warm 4-rank job took {warm:.3f} s > {WARM_BOUND} x {start:.3f} s"
    assert shm <= SHM_BOUND * warm, \
        f"a warm 4-rank shm job took {shm:.3f} s > {SHM_BOUND} x {warm:.3f} s"


def test_a_job_imports_its_target_once(tmp_path):
    """The job's proxy imports the target and forks the ranks from it,
    so a target that is slow to import costs a warm 4-rank job one
    import, not one per rank."""
    heavy = tmp_path / "heavy_import.py"
    heavy.write_text(HEAVY_TARGET)
    allowed = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {max(allowed)})
    try:
        job_s(4)    # warm the zygote
        noop = slow = float("inf")
        for _ in range(3):      # alternately: all see the same seconds
            noop = min(noop, job_s(4))
            slow = min(slow, job_s(4, f"{heavy}:body"))
    finally:
        os.sched_setaffinity(0, allowed)
    extra = slow - noop
    print(f"\nwarm 4-rank job on one CPU, best of 3: no-op "
          f"{noop * 1e3:.0f} ms, with a {IMPORT_BURN_S * 1e3:.0f} ms "
          f"import {slow * 1e3:.0f} ms ({extra / IMPORT_BURN_S:.1f} "
          f"imports)")
    assert extra < IMPORT_BOUND * IMPORT_BURN_S, \
        f"the import cost {extra:.3f} s > {IMPORT_BOUND} x {IMPORT_BURN_S} s"


def test_a_rank_with_no_channels_closes_at_once():
    """A 1-rank job has nothing to drain: no pump thread, so ``close()``
    has no ``select`` timeout (0.2 s) to wait out."""
    import threading
    from repro.runtime.engine import Universe
    universe = Universe(1, "socket")
    try:
        assert not [t.name for t in threading.enumerate()
                    if t.name.startswith("repro-pump")]
    finally:
        t0 = time.perf_counter()
        universe.close()
        took = time.perf_counter() - t0
    assert took < 0.05, f"close() of a 1-rank universe took {took:.3f} s"
