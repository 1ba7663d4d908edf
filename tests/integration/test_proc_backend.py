"""Process-per-rank backend: end-to-end, faults, and control plane.

Every job here runs ranks as real OS processes over the TCP mesh, so
nothing — matching, collectives, abort delivery, failure folding — can
lean on shared memory.  The suite is the process-backend port of the
fault-injection scenarios plus an IBM-suite smoke subset, with the wire
bounds the issue demands: cross-process abort unwind under 2 s, and a
rank's exception round-tripping to the launcher with type and message
intact.

SPMD bodies must be module-level (they cross the process boundary by
reference, like ``multiprocessing`` spawn targets).

``REPRO_PROC_NPROCS`` sizes the default world (CI runs a small matrix).
"""

import os
import signal
import socket
import subprocess
import sys
import time

import numpy as np
import pytest

from repro import procrun, ProcExecutor
from repro.errors import AbortException
from repro.executor.procrunner import (LINGER_S, _child_env, recv_msg_fds,
                                       send_msg_fds, target_spec)
from repro.executor.runner import JobTimeoutError, RankFailure
from repro.mpijava import MPI, Request
from repro.mpijava.op import Op
from repro.transport.shm import leaked_segments

NPROCS = int(os.environ.get("REPRO_PROC_NPROCS", "4"))

#: the wire bound from the issue: peers of a failed rank must unwind
#: well under this (measured inside the victim, excluding spawn cost)
UNWIND_BOUND = 2.0

TIMEOUT = 60.0


# --- module-level SPMD bodies -------------------------------------------------

def rank_report_body():
    MPI.Init([])
    w = MPI.COMM_WORLD
    out = (w.Rank(), w.Size(), os.getpid())
    MPI.Finalize()
    return out


def ibm_smoke_body():
    """Smoke subset of the IBM suite: pt2pt ring + core collectives."""
    MPI.Init([])
    w = MPI.COMM_WORLD
    rank, size = w.Rank(), w.Size()
    # ring sendrecv (pt2pt matching over the mesh)
    right, left = (rank + 1) % size, (rank - 1) % size
    sb = np.array([rank], dtype=np.int64)
    rb = np.zeros(1, dtype=np.int64)
    if rank % 2 == 0:
        w.Send(sb, 0, 1, MPI.LONG, right, 7)
        w.Recv(rb, 0, 1, MPI.LONG, left, 7)
    else:
        w.Recv(rb, 0, 1, MPI.LONG, left, 7)
        w.Send(sb, 0, 1, MPI.LONG, right, 7)
    assert int(rb[0]) == left
    # bcast
    buf = np.array([42.0 if rank == 0 else 0.0])
    w.Bcast(buf, 0, 1, MPI.DOUBLE, 0)
    assert buf[0] == 42.0
    # allreduce
    one = np.array([1.0])
    total = np.zeros(1)
    w.Allreduce(one, 0, total, 0, 1, MPI.DOUBLE, MPI.SUM)
    assert total[0] == float(size)
    # gather at a non-zero root
    root = size - 1
    got = np.zeros(size, dtype=np.int64) if rank == root \
        else np.zeros(1, dtype=np.int64)
    w.Gather(sb, 0, 1, MPI.LONG, got, 0, 1, MPI.LONG, root)
    if rank == root:
        assert list(got) == list(range(size))
    # derived datatypes over the process mesh: a large strided Vector
    # exchange rides the layout-IR wire path (iovec send + per-run
    # direct landing) and a small one the dense-frame path
    for count, block, stride in ((2, 3, 5), (16, 1024, 2048)):
        vec = MPI.DOUBLE.Vector(count, block, stride).Commit()
        span = (count - 1) * stride + block
        mat = np.zeros(span, dtype=np.float64)
        if rank == 0:
            mat[:] = np.arange(span, dtype=np.float64)
            w.Send(mat, 0, 1, vec, 1, 9)
        elif rank == 1:
            w.Recv(mat, 0, 1, vec, 0, 9)
            for i in range(count):
                lo = i * stride
                assert np.array_equal(
                    mat[lo:lo + block],
                    np.arange(lo, lo + block, dtype=np.float64)), \
                    "strided landing corrupted over the TCP mesh"
            assert mat[block] == 0.0 if stride > block else True
        # Pack/Unpack through the OO API on the same derived type
        packed = np.zeros(w.Pack_size(1, vec), dtype=np.uint8)
        pos = w.Pack(mat, 0, 1, vec, packed, 0)
        out = np.zeros(span, dtype=np.float64)
        w.Unpack(packed, 0, out, 0, 1, vec)
        assert pos == count * block * 8
        vec.Free()
    w.Barrier()
    MPI.Finalize()
    return "ok"


def comm_management_body():
    """Split/dup across processes: context agreement without shared state."""
    MPI.Init([])
    w = MPI.COMM_WORLD
    rank, size = w.Rank(), w.Size()
    half = w.Split(rank % 2, rank)
    sub_total = np.zeros(1)
    one = np.array([1.0])
    half.Allreduce(one, 0, sub_total, 0, 1, MPI.DOUBLE, MPI.SUM)
    expect = len([r for r in range(size) if r % 2 == rank % 2])
    assert sub_total[0] == float(expect), (sub_total[0], expect)
    dup = w.Dup()
    total = np.zeros(1)
    dup.Allreduce(one, 0, total, 0, 1, MPI.DOUBLE, MPI.SUM)
    assert total[0] == float(size)
    MPI.Finalize()
    return float(sub_total[0])


def failing_rank_body(fail_rank):
    MPI.Init([])
    w = MPI.COMM_WORLD
    if w.Rank() == fail_rank:
        raise ValueError("boom at rank %d" % fail_rank)
    buf = np.zeros(1, dtype=np.int32)
    w.Recv(buf, 0, 1, MPI.INT, fail_rank, 0)
    return "unreachable"


def timed_victim_body(fail_rank):
    """Victims time their own unwind and smuggle it out via the failure."""
    MPI.Init([])
    w = MPI.COMM_WORLD
    if w.Rank() == fail_rank:
        time.sleep(0.2)  # let peers actually block first
        raise ValueError("origin dies")
    t0 = time.monotonic()
    try:
        buf = np.zeros(1, dtype=np.int32)
        w.Recv(buf, 0, 1, MPI.INT, fail_rank, 0)
    except AbortException as exc:
        dt = time.monotonic() - t0
        assert exc.origin_rank == fail_rank
        assert isinstance(exc.__cause__, ValueError), exc.__cause__
        raise RuntimeError("unwound %.3f" % dt)
    return "unreachable"


def user_op_failure_body(handler):
    """Fault-injection port: a user reduction op raising a non-MPI error."""
    MPI.Init([])
    w = MPI.COMM_WORLD

    def ufn(invec, inoutvec, count, datatype):
        raise ValueError("injected user-op failure")

    if handler == "return":
        w.Errhandler_set(MPI.ERRORS_RETURN)
    op = Op.Create(ufn, commute=True)
    sb = np.array([float(w.Rank())])
    rb = np.zeros(1)
    w.Allreduce(sb, 0, rb, 0, 1, MPI.DOUBLE, op)
    return "unreachable"


def death_between_collectives_body():
    """Fault-injection port: rank 1 dies where no MPI call can see it."""
    MPI.Init([])
    w = MPI.COMM_WORLD
    sb = np.array([1.0])
    rb = np.zeros(1)
    w.Allreduce(sb, 0, rb, 0, 1, MPI.DOUBLE, MPI.SUM)
    if w.Rank() == 1:
        raise ValueError("injected failure between collectives")
    w.Barrier()
    return "unreachable"


def hang_body(kind, arg):
    """Deliberately MPI-free: a rank wedged in plain Python code cannot
    be unwound by the abort machinery, guaranteeing a deterministic
    hang (an MPI-blocked rank would unwind and report instead)."""
    if kind == "raise":
        raise ValueError(arg)
    time.sleep(arg)
    return kind


def launch_report_body():
    """Who started this rank, with what: (pid, parent, mark, cwd)."""
    MPI.Init([])
    MPI.COMM_WORLD.Barrier()
    MPI.Finalize()
    return (os.getpid(), os.getppid(),
            os.environ.get("REPRO_TEST_LAUNCH_MARK"), os.getcwd())


def unrelated_env_body():
    """(zygote, ``TEST_UNRELATED_MARK`` as this rank sees it)."""
    return parent_of(os.getppid()), os.environ.get("TEST_UNRELATED_MARK")


def fd_links(pid):
    """fd -> what ``/proc/<pid>/fd`` says it is, stdio left out."""
    links = {}
    for name in os.listdir(f"/proc/{pid}/fd"):
        if int(name) > 2:
            try:
                links[int(name)] = os.readlink(f"/proc/{pid}/fd/{name}")
            except OSError:
                pass   # the listing's own fd, closed by now
    return links


def own_fds_body():
    """What this rank holds beyond stdio, mid-job: its AF_INET sockets
    (fd -> TCP_NODELAY set), the fds of its mesh channels, its AF_UNIX
    sockets, the sockets it shares with its parent (the job's proxy),
    every socket it holds, the ``/dev/shm`` names it has open and
    anything else."""
    from repro.runtime.engine import current_runtime
    MPI.Init([])
    MPI.COMM_WORLD.Barrier()
    mine = fd_links(os.getpid())
    proxy = set(fd_links(os.getppid()).values())
    inet, unix, shm, other = {}, [], [], []
    for fd, link in mine.items():
        if link.startswith("socket:"):
            with socket.socket(fileno=os.dup(fd)) as sock:
                if sock.family == socket.AF_INET:
                    inet[fd] = bool(sock.getsockopt(socket.IPPROTO_TCP,
                                                    socket.TCP_NODELAY))
                else:
                    unix.append(link)
        elif link.startswith("/dev/shm/"):
            shm.append(link.rpartition("_")[2])
        else:
            other.append(link)
    chans = sorted(chan.sock.fileno() for chan
                   in current_runtime().universe.transport._chans)
    MPI.COMM_WORLD.Barrier()
    MPI.Finalize()
    sockets = [link for link in mine.values() if link.startswith("socket:")]
    return {"inet": inet, "chans": chans, "unix": unix,
            "shared with proxy": sorted(proxy & set(sockets)),
            "sockets": sockets, "shm": sorted(shm), "other": other}


def job_state_body():
    """What a rank took on from its job: (zygote, cwd, CPU affinity).
    The zygote is the rank's grandparent: its parent is the job's
    proxy."""
    MPI.Init([])
    MPI.COMM_WORLD.Barrier()
    MPI.Finalize()
    return (parent_of(os.getppid()), os.getcwd(),
            sorted(os.sched_getaffinity(0)))


def print_body(word):
    """Each rank prints one line to its fd 1; returns its zygote."""
    print(f"rank {os.getpid()} says {word}", flush=True)
    return parent_of(os.getppid())


def modules_body(name):
    """(this rank's zygote, whether module ``name`` is loaded here)."""
    return parent_of(os.getppid()), name in sys.modules


def killer_body(generation):
    """Rank 0 SIGKILLs an ancestor of the ranks once every rank is up:
    its parent (1: the job's proxy) or grandparent (2: the zygote)."""
    MPI.Init([])
    w = MPI.COMM_WORLD
    w.Barrier()
    if w.Rank() == 0:
        victim = os.getppid()
        if generation == 2:
            victim = parent_of(victim)
        os.kill(victim, signal.SIGKILL)
    time.sleep(30.0)
    return "unreachable"


def zygote_killer_body():
    """Rank 0 SIGKILLs the ranks' zygote once every rank is up."""
    return killer_body(2)


def proxy_killer_body():
    """Rank 0 SIGKILLs the ranks' parent, the job's proxy, once every
    rank is up."""
    return killer_body(1)


def blocked_recv_body():
    """Rank 1 waits for a message that rank 0 never sends."""
    MPI.Init([])
    w = MPI.COMM_WORLD
    if w.Rank() == 1:
        w.Recv(np.zeros(1, dtype=np.int32), 0, 1, MPI.INT, 0, 0)
    return w.Rank()


def lanes_and_children_body():
    """This rank's bulk paths and child processes, mid-job."""
    from repro.runtime.engine import current_runtime
    MPI.Init([])
    MPI.COMM_WORLD.Barrier()
    paths = current_runtime().universe.transport.bulk_paths()
    children = [int(pid) for pid in os.listdir("/proc") if pid.isdigit()
                and parent_of(pid) == os.getpid()]
    MPI.Finalize()
    return paths, children


def pids_then_sleep_body(where):
    """Each rank leaves ``<where>/rank<r>`` = "pid parent", then sleeps."""
    MPI.Init([])
    rank = MPI.COMM_WORLD.Rank()
    MPI.COMM_WORLD.Barrier()
    path = os.path.join(where, f"rank{rank}")
    with open(path + ".tmp", "w") as f:
        f.write(f"{os.getpid()} {os.getppid()}")
    os.rename(path + ".tmp", path)
    time.sleep(30.0)
    return "unreachable"


#: a launcher of its own, for a test to SIGKILL mid-job: one 2-rank
#: job of the target named by argv[1], with argv[2] as its argument
DOOMED_LAUNCHER = """
import sys
from repro import procrun
procrun(2, sys.argv[1], args=(sys.argv[2],), timeout=60)
"""


#: the windowed stream: 64 messages of 128 int64 (1 KiB) per window
STREAM_WINDOW, STREAM_ELEMS = 64, 128


def windowed_stream_body(windows):
    """Windows of 64 x 1 KiB Isend against pre-posted Irecv, gated by an
    8 B ack per window; every message is filled with its global index
    and rank 1 returns the sum of everything it received."""
    MPI.Init([])
    w = MPI.COMM_WORLD
    rank = w.Rank()
    W, N = STREAM_WINDOW, STREAM_ELEMS
    slots = np.zeros(W * N, dtype=np.int64)
    ack = np.zeros(1, dtype=np.int64)
    total = 0
    for win in range(windows):
        if rank == 0:
            slots[:] = np.repeat(np.arange(win * W, (win + 1) * W), N)
            w.Recv(ack, 0, 1, MPI.LONG, 1, 2)   # the window is posted
            Request.Waitall([w.Isend(slots, k * N, N, MPI.LONG, 1, 1)
                             for k in range(W)])
        else:
            reqs = [w.Irecv(slots, k * N, N, MPI.LONG, 0, 1)
                    for k in range(W)]
            w.Send(ack, 0, 1, MPI.LONG, 0, 2)
            Request.Waitall(reqs)
            total += int(slots.sum())
    MPI.Finalize()
    return total


def large_exchange_body():
    """Rendezvous-sized traffic both ways between ranks 0 and 1: 4 MiB
    contiguous (standard and synchronous mode) and a 2 MiB strided
    Vector into a differently-strided Vector.  Returns each rank's
    checksums of what it received, gaps included, and its wire counters
    and bulk paths."""
    from repro.runtime.engine import current_runtime
    MPI.Init([])
    w = MPI.COMM_WORLD
    rank = w.Rank()
    n = (4 << 20) // 8
    send_vec = MPI.DOUBLE.Vector(64, 4096, 6144).Commit()
    recv_vec = MPI.DOUBLE.Vector(128, 2048, 2560).Commit()
    sums = []
    if rank < 2:
        peer = 1 - rank
        mine = np.arange(n, dtype=np.float64) * (rank + 1)
        got = np.zeros(n)
        strided_out = np.arange(64 * 6144, dtype=np.float64) + rank
        strided_in = np.full(128 * 2560, -1.0)
        for mode in ("send", "ssend"):
            send = w.Send if mode == "send" else w.Ssend
            if rank == 0:
                send(mine, 0, n, MPI.DOUBLE, peer, 3)
                w.Recv(got, 0, n, MPI.DOUBLE, peer, 3)
            else:
                w.Recv(got, 0, n, MPI.DOUBLE, peer, 3)
                send(mine, 0, n, MPI.DOUBLE, peer, 3)
            sums.append(float(got.sum()))
            got[:] = 0
        reqs = [w.Irecv(strided_in, 0, 1, recv_vec, peer, 4)]
        w.Barrier()             # both receives are posted: direct landing
        reqs.append(w.Isend(strided_out, 0, 1, send_vec, peer, 4))
        Request.Waitall(reqs)
        sums.append(float(strided_in.sum()))
        sums.append(float(strided_in[2048:2560].sum()))    # a gap: untouched
    else:
        w.Barrier()
    w.Barrier()
    transport = current_runtime().universe.transport
    out = (sums, transport.wire_stats.snapshot(), transport.bulk_paths())
    send_vec.Free()
    recv_vec.Free()
    MPI.Finalize()
    return out


#: ``REPRO_FAULT`` values under which ranks 0 and 1 run the three bulk
#: policies: both read in place; rank 1 cannot (what it receives with a
#: cookie it answers with a plain CTS, what it sends takes the ring);
#: rank 0 cannot
PROBE_FAULTS = {"capable": None, "rank1-denied": "cma.probe:1::deny",
                "rank0-denied": "cma.probe:0::deny"}


def threads_body():
    """Names of this rank's threads but the one running it, mid-job."""
    import threading
    MPI.Init([])
    MPI.COMM_WORLD.Barrier()
    names = sorted(t.name for t in threading.enumerate()
                   if t is not threading.current_thread())
    MPI.COMM_WORLD.Barrier()
    MPI.Finalize()
    return names


# --- tests --------------------------------------------------------------------

class TestEndToEnd:
    def test_ranks_are_distinct_os_processes(self):
        rows = procrun(NPROCS, rank_report_body, timeout=TIMEOUT)
        assert [r for r, _, _ in rows] == list(range(NPROCS))
        assert all(s == NPROCS for _, s, _ in rows)
        pids = {pid for _, _, pid in rows}
        assert len(pids) == NPROCS, f"ranks shared processes: {pids}"
        assert os.getpid() not in pids

    def test_ibm_suite_smoke_subset(self):
        assert procrun(NPROCS, ibm_smoke_body, timeout=TIMEOUT) \
            == ["ok"] * NPROCS

    def test_split_and_dup_across_processes(self):
        out = procrun(NPROCS, comm_management_body, timeout=TIMEOUT)
        assert len(out) == NPROCS

    def test_string_target_from_example_file(self):
        root = os.path.dirname(os.path.dirname(os.path.dirname(
            os.path.abspath(__file__))))
        target = os.path.join(root, "examples", "pi_reduce.py") \
            + ":compute_pi"
        out = procrun(2, target, args=(20_000,), timeout=TIMEOUT)
        assert out[0] == pytest.approx(3.14159, abs=1e-3)
        assert out[1] is None

    @pytest.mark.parametrize("probes", sorted(PROBE_FAULTS))
    def test_windowed_isend_stream_over_shm(self, probes, monkeypatch):
        """Back-to-back windows of nonblocking sends at or above the
        eager limit.  With the sender's probes denied
        (``rank0-denied``) the bodies ride the bulk lane and keep both
        ring counters moving at once — the traffic that exposes a torn
        cross-process counter publish (the job aborted inside the ring
        within ~100 windows when the publish zero-filled first) and any
        drift between lane byte order and header order on the socket.
        ``capable``: each is announced and read in place, 64 gets in
        flight per window; ``rank1-denied``: each is announced, refused
        and streamed.  Same sum every way."""
        monkeypatch.setenv("REPRO_SHM", "1")
        if PROBE_FAULTS[probes]:
            monkeypatch.setenv("REPRO_FAULT", PROBE_FAULTS[probes])
        else:
            monkeypatch.delenv("REPRO_FAULT", raising=False)
        # 1 KiB messages at or above the limit: all of them bulk
        monkeypatch.setenv("REPRO_EAGER_LIMIT", "512")
        windows = 300
        out = procrun(2, windowed_stream_body, args=(windows,),
                      timeout=TIMEOUT)
        messages = windows * STREAM_WINDOW
        assert out[1] == STREAM_ELEMS * messages * (messages - 1) // 2

    def test_large_messages_identical_on_every_bulk_path(self,
                                                         monkeypatch):
        """Which ranks can read their peer's memory decides *how* a
        rendezvous-sized message moves, never what arrives: capable,
        receiver denied and sender denied give identical results — and
        the counters say each job ran the path its probes found."""
        monkeypatch.setenv("REPRO_SHM", "1")
        results = {}
        for probes, fault in PROBE_FAULTS.items():
            if fault:
                monkeypatch.setenv("REPRO_FAULT", fault)
            else:
                monkeypatch.delenv("REPRO_FAULT", raising=False)
            results[probes] = procrun(2, large_exchange_body,
                                      timeout=TIMEOUT)
        sums = {probes: [rank[0] for rank in out]
                for probes, out in results.items()}
        n = (4 << 20) // 8
        total = float(np.arange(n, dtype=np.float64).sum())
        assert sums["capable"][0][:2] == [2 * total] * 2
        assert sums["capable"][1][:2] == [total] * 2
        assert sums["capable"][0][3] == -512.0
        assert sums["rank1-denied"] == sums["capable"]
        assert sums["rank0-denied"] == sums["capable"]
        paths = {probes: {k: v for rank in out for k, v in rank[2].items()}
                 for probes, out in results.items()}
        gets = {probes: [rank[1]["rndv_get_frames"] for rank in out]
                for probes, out in results.items()}
        if set(paths["capable"].values()) != {"cma"}:
            pytest.skip(f"no single-copy get here: {paths['capable']}")
        assert paths["rank1-denied"] == {"0->1": "cma", "1->0": "ring"}
        assert paths["rank0-denied"] == {"0->1": "ring", "1->0": "cma"}
        # three rendezvous-sized messages each way: every one a get on
        # the capable pair, none where either end was denied (a denied
        # receiver refuses the cookie, a denied sender offers none)
        assert gets["capable"] == [3, 3]
        assert gets["rank1-denied"] == [0, 0]
        assert gets["rank0-denied"] == [0, 0]
        for probes, out in results.items():
            for _, stats, _ in out:
                # (a denied sender's 2 MiB fits the lane whole: eager)
                assert stats["rndv_direct_frames"] \
                    + stats["eager_direct_frames"] == 3, (probes, stats)
                assert stats["rndv_staged_frames"] == 0, (probes, stats)

    @pytest.mark.parametrize("shm", ["0", "1"])
    def test_a_rank_runs_a_pump_a_writer_and_a_control_thread(
            self, shm, monkeypatch):
        """One frame stream per pair: with or without the bulk lanes a
        rank runs exactly one pump and one writer, and one thread talks
        to the launcher — it serves the launcher's commands and beats
        the heartbeat both."""
        monkeypatch.setenv("REPRO_SHM", shm)
        out = procrun(2, threads_body, timeout=TIMEOUT)
        assert out == [["repro-proc-control", f"repro-pump-{rank}",
                        "repro-wire-writer"] for rank in range(2)]

    @pytest.mark.parametrize("shm", ["0", "1"])
    def test_a_rank_owns_only_its_own_fds(self, shm, monkeypatch):
        """The proxy wires every rank's mesh row and control end before
        it forks them; each rank keeps its own and nothing else, or a
        dead peer's EOF would never arrive."""
        monkeypatch.setenv("REPRO_SHM", shm)
        nprocs = 4
        out = procrun(nprocs, own_fds_body, timeout=TIMEOUT)
        for rank, fds in enumerate(out):
            assert len(fds["inet"]) == nprocs - 1, fds
            assert all(fds["inet"].values()), f"Nagle left on: {fds}"
            assert sorted(fds["inet"]) == fds["chans"], fds
            assert len(fds["unix"]) == 1, fds   # the control end
            assert fds["shared with proxy"] == [], fds
            lanes = sorted(f"{src}t{dst}" for src in range(nprocs)
                           for dst in range(nprocs)
                           if src != dst and rank in (src, dst))
            assert fds["shm"] == (lanes if shm == "1" else []), fds
            # the pump's selector
            assert set(fds["other"]) <= {"anon_inode:[eventpoll]"}, fds
        held = [link for fds in out for link in fds["sockets"]]
        assert len(held) == len(set(held)), "a rank holds a sibling's socket"

    def test_local_function_rejected_with_clear_error(self):
        def local_body():  # pragma: no cover - must not even ship
            return 1

        with pytest.raises(TypeError, match="module-level"):
            target_spec(local_body)


def worker_processes():
    """Pids run as ``python -m repro.executor.procworker``: zygotes
    and (forked from one, they share its command line) every proxy and
    every rank of any job.  The module name must be an argument of its
    own — a shell whose script merely mentions it is not a worker."""
    found = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/cmdline", "rb") as f:
                if b"repro.executor.procworker" in f.read().split(b"\0"):
                    found.append(int(entry))
        except OSError:
            pass   # gone while we looked
    return found


def parent_of(pid):
    """The parent pid of ``pid``, or None once it is gone."""
    try:
        with open(f"/proc/{pid}/stat") as f:
            # pid (comm) state ppid ...; comm may hold spaces and brackets
            return int(f.read().rpartition(")")[2].split()[1])
    except OSError:
        return None


def alive(pid):
    """Whether ``pid`` still runs (a zombie does not)."""
    try:
        with open(f"/proc/{pid}/stat") as f:
            return f.read().rpartition(")")[2].split()[0] != "Z"
    except OSError:
        return False


def leaked_workers():
    """Every worker but this process's idle zygote.  The idle zygote is
    the one worker that is a child of this process and has no worker
    child of its own; every proxy and every rank has a worker — or
    nobody — as its parent, so it is always a leak, and so is a zygote
    still holding one."""
    workers = worker_processes()
    parents = {pid: parent_of(pid) for pid in workers}
    idle = [pid for pid in workers if parents[pid] == os.getpid()
            and pid not in parents.values()]
    return [pid for pid in workers if pid not in idle[:1]]


def assert_no_worker_survives(within=2.0):
    deadline = time.monotonic() + within
    while leaked_workers() and time.monotonic() < deadline:
        time.sleep(0.05)
    assert not leaked_workers(), "leaked zygote or rank processes"


#: a target module that logs each pid importing it and reports who
#: runs it: (pid, parent, grandparent)
IMPORT_LOGGING_TARGET = """
import os
with open(os.environ['REPRO_TEST_IMPORT_LOG'], 'a') as f:
    f.write(f'{os.getpid()}\\n')

def parent_of(pid):
    with open(f'/proc/{pid}/stat') as f:
        return int(f.read().rpartition(')')[2].split()[1])

def body():
    return os.getpid(), os.getppid(), parent_of(os.getppid())
"""


#: a target module whose last line snapshots ``sys.modules``: it runs
#: once per job, in the job's proxy, before the ranks are forked, so
#: what ``body`` returns is what a rank imported after its fork
FORK_IMPORTS_TARGET = """
import sys

import numpy as np

from repro.mpijava import MPI, Request


def body():
    MPI.Init([])
    w = MPI.COMM_WORLD
    rank, size = w.Rank(), w.Size()
    w.Barrier()
    for n in (1, (2 << 20) // 8):           # 8 B and 2 MiB
        out = np.zeros(n)
        w.Allreduce(np.ones(n), 0, out, 0, n, MPI.DOUBLE, MPI.SUM)
        assert out[0] == size
    word = np.array([7 if rank == 0 else 0], dtype=np.int32)
    w.Bcast(word, 0, 1, MPI.INT, 0)
    assert word[0] == 7
    got = np.zeros(size, dtype=np.int64)
    w.Alltoall(np.full(size, rank, dtype=np.int64), 0, 1, MPI.LONG,
               got, 0, 1, MPI.LONG)
    assert list(got) == list(range(size))
    if rank < 2:
        peer = 1 - rank
        if rank == 0:
            w.Send([{"nested": (1, 2.5)}], 0, 1, MPI.OBJECT, peer, 1)
        else:
            status = w.Probe(peer, MPI.ANY_TAG)
            box = [None]
            w.Recv(box, 0, 1, MPI.OBJECT, peer, status.tag)
            assert box == [{"nested": (1, 2.5)}]
        mine, theirs = np.arange(64.0) + rank, np.zeros(64)
        Request.Waitall([w.Irecv(theirs, 0, 64, MPI.DOUBLE, peer, 2),
                         w.Isend(mine, 0, 64, MPI.DOUBLE, peer, 2)])
        assert theirs[0] == peer
    vec = MPI.DOUBLE.Vector(4, 2, 3).Commit()
    sent, landed = np.arange(11.0) + 100 * rank, np.zeros(11)
    w.Sendrecv(sent, 0, 1, vec, (rank + 1) % size, 3,
               landed, 0, 1, vec, (rank - 1) % size, 3)
    assert landed[0] == 100 * ((rank - 1) % size)
    vec.Free()
    MPI.Finalize()
    return sorted(set(sys.modules) - SNAPSHOT)


SNAPSHOT = set(sys.modules)
"""


#: a launcher whose soft fd limit (argument 0) or also hard fd limit
#: (argument 1) is too low for a 9-rank mesh; prints how many ranks ran,
#: or the failed ranks and rank 0's failure
LOW_FD_LIMIT_LAUNCHER = """
import resource
import sys
from repro import procrun
from repro.executor.runner import RankFailure
hard = resource.getrlimit(resource.RLIMIT_NOFILE)[1]
resource.setrlimit(resource.RLIMIT_NOFILE,
                   (64, 64 if sys.argv[1] == "1" else hard))
try:
    print(len(set(procrun(9, "os:getpid", timeout=20))), "ranks ran")
except RankFailure as exc:
    ranks = sorted(exc.failures)
    print(f"{ranks[0]}-{ranks[-1]}", exc.failures[0])
"""


class TestLaunchPath:
    """A job costs two forks and one import: the launcher keeps one
    zygote, which forks a proxy per job; the proxy imports the target
    and forks the job's ranks and stays as their parent.  Everything a
    rank takes on is the launcher's *at that job's start*, no user code
    runs in the zygote, and a zygote that served a failed job serves no
    other."""

    def test_ranks_share_a_parent_that_is_neither_launcher_nor_rank(self):
        rows = procrun(NPROCS, launch_report_body, timeout=20)
        pids = [pid for pid, _, _, _ in rows]
        parents = {ppid for _, ppid, _, _ in rows}
        assert len(set(pids)) == NPROCS, pids
        assert len(parents) == 1, f"ranks of one job, {parents} parents"
        assert not parents & ({os.getpid()} | set(pids)), (parents, pids)
        assert_no_worker_survives()

    def test_each_job_sees_the_launchers_environment_and_cwd_as_of_now(
            self, monkeypatch, tmp_path):
        """The environment shapes the zygote's imports, so a job whose
        environment differs gets a zygote started with it; the directory
        is the launcher's as of each ``run()`` either way."""
        with ProcExecutor(2) as ex:
            for mark in ("first", "second"):
                where = tmp_path / mark
                where.mkdir()
                monkeypatch.setenv("REPRO_TEST_LAUNCH_MARK", mark)
                monkeypatch.chdir(where)
                rows = ex.run(launch_report_body, timeout=20)
                assert [(m, cwd) for _, _, m, cwd in rows] \
                    == [(mark, str(where))] * 2

    @pytest.mark.parametrize("spec", ["file", "module"])
    def test_target_module_is_imported_once_per_job(
            self, spec, monkeypatch, tmp_path):
        """By the ranks' common parent, the job's proxy, before it forks
        them: not by the launcher, the zygote or any rank."""
        log = tmp_path / "imports.log"
        target = tmp_path / "once_per_job_target.py"
        target.write_text(IMPORT_LOGGING_TARGET)
        monkeypatch.setenv("REPRO_TEST_IMPORT_LOG", str(log))
        if spec == "file":
            name = f"{target}:body"
        else:
            monkeypatch.syspath_prepend(str(tmp_path))
            name = "once_per_job_target:body"
        rows = procrun(NPROCS, name, timeout=20)
        importers = [int(line) for line in log.read_text().split()]
        (proxy,) = {ppid for _, ppid, _ in rows}
        (zygote,) = {gpid for _, _, gpid in rows}
        assert importers == [proxy], (importers, rows)
        assert proxy not in {os.getpid(), zygote} | {p for p, _, _ in rows}

    def test_an_unrelated_variable_does_not_cost_a_zygote(self,
                                                           monkeypatch,
                                                           tmp_path):
        """Only what can shape imports keys the zygote; two jobs whose
        environments differ in anything else share it, and each rank
        sees its own job's value — or, unset, none.  A library search
        path is read by the loader only when an interpreter starts, so a
        changed one gets a fresh zygote."""
        rows = []
        for mark in ("first", "second", None):
            if mark is None:
                monkeypatch.delenv("TEST_UNRELATED_MARK")
            else:
                monkeypatch.setenv("TEST_UNRELATED_MARK", mark)
            got = procrun(2, unrelated_env_body, timeout=20)
            assert [m for _, m in got] == [mark] * 2, got
            rows += got
        assert len({zygote for zygote, _ in rows}) == 1, rows
        monkeypatch.setenv("LD_LIBRARY_PATH", os.pathsep.join(
            filter(None, (os.environ.get("LD_LIBRARY_PATH"),
                          str(tmp_path)))))
        after = procrun(2, unrelated_env_body, timeout=20)
        assert {zygote for zygote, _ in after}.isdisjoint(
            zygote for zygote, _ in rows), (rows, after)

    def test_a_job_too_big_for_one_request_is_refused_up_front(self):
        """Fds 0 / 1 / 2 and one control end per rank ride one
        ``SCM_RIGHTS`` message, which carries at most 253."""
        with pytest.raises(ValueError, match="SCM_RIGHTS message at most 253"):
            ProcExecutor(251)
        assert ProcExecutor(250).nprocs == 250

    def test_fds_past_the_receivers_bound_raise_rather_than_vanish(self):
        a, b = socket.socketpair()
        sent = [os.open(os.devnull, os.O_RDONLY) for _ in range(4)]
        try:
            send_msg_fds(a, {"cmd": "job"}, sent)
            before = len(os.listdir("/proc/self/fd"))
            with pytest.raises(OSError, match="more than 2 fds"):
                recv_msg_fds(b, 2)
            # the two that did arrive are closed again
            assert len(os.listdir("/proc/self/fd")) == before
        finally:
            for fd in sent:
                os.close(fd)
            a.close()
            b.close()

    @pytest.mark.parametrize("hard", [False, True],
                             ids=["soft limit", "hard limit"])
    def test_a_mesh_past_the_fd_limit_is_refused_naming_it(self, hard):
        """9 ranks take 72 mesh sockets in their proxy.  The proxy
        raises its soft fd limit to the hard one, so a soft limit of 64
        stops nothing; with 64 fds as the hard limit, the proxy says so
        instead of failing mid-build."""
        env = _child_env()
        env.pop("REPRO_FAULT", None)
        out = subprocess.run(
            [sys.executable, "-c", LOW_FD_LIMIT_LAUNCHER, str(int(hard))],
            env=env, capture_output=True, text=True, timeout=TIMEOUT)
        assert out.returncode == 0, out.stderr
        if not hard:
            assert out.stdout.strip() == "9 ranks ran", out.stdout
            return
        ranks, text = out.stdout.split(" ", 1)
        assert ranks == "0-8", out.stdout
        assert "never started" in text and "RLIMIT_NOFILE of 64" in text, text
        assert_no_worker_survives()

    def test_explicit_interpreter_still_honoured(self):
        rows = ProcExecutor(2, python=sys.executable).run(
            launch_report_body, timeout=20)
        assert len({pid for pid, _, _, _ in rows}) == 2

    def test_killed_zygote_fails_every_unreported_rank_and_leaks_none(self):
        t0 = time.monotonic()
        with pytest.raises(RankFailure) as ei:
            procrun(NPROCS, zygote_killer_body, timeout=20)
        assert time.monotonic() - t0 < 10.0
        failures = ei.value.failures
        assert set(failures) == set(range(NPROCS)), failures
        assert all("zygote died (exit code -9)" in str(f)
                   for f in failures.values()), failures
        assert_no_worker_survives()

    @pytest.mark.parametrize("shm", ["0", "1"])
    def test_killed_proxy_fails_every_unreported_rank_and_leaks_none(
            self, shm, monkeypatch):
        """The proxy SIGKILLed mid-body: its ranks die with it, the
        zygote reaps it, sweeps the job's shm names and exits, and the
        failure names the proxy.  The next job gets a fresh zygote."""
        from repro.executor import procrunner
        monkeypatch.setenv("REPRO_SHM", shm)
        before = procrun(2, job_state_body, timeout=20)[0][0]
        seq = 10 ** 6   # the killed job's shm nonce, known in advance
        monkeypatch.setattr(procrunner, "_SHM_RUN_SEQ",
                            iter(range(seq, seq + 2)))
        t0 = time.monotonic()
        with pytest.raises(RankFailure) as ei:
            procrun(NPROCS, proxy_killer_body, timeout=20)
        assert time.monotonic() - t0 < 10.0
        failures = ei.value.failures
        assert set(failures) == set(range(NPROCS)), failures
        for failure in failures.values():
            text = str(failure)
            assert "the job's proxy died" in text, failures
            assert "zygote" not in text, failures
        assert_no_worker_survives()
        assert leaked_segments(f"{os.getpid():x}j{seq}", NPROCS) == []
        healthy = procrun(2, job_state_body, timeout=20)
        assert len({z for z, _, _ in healthy}) == 1, healthy
        assert healthy[0][0] != before
        assert_no_worker_survives()

    def test_a_launcher_killed_during_the_import_leaves_no_worker(
            self, tmp_path):
        """Until the proxy has forked the ranks, the launcher's EOF is
        the zygote's to act on: it kills a proxy wedged in the import,
        and exits."""
        marker = tmp_path / "importing"
        target = tmp_path / "wedged_import.py"
        target.write_text(
            "import os, time\n"
            "path = os.environ['REPRO_TEST_MARKER']\n"
            "with open(path + '.tmp', 'w') as f:\n"
            "    f.write(f'{os.getpid()} {os.getppid()}')\n"
            "os.rename(path + '.tmp', path)\n"
            "time.sleep(30)\n"
            "def body(arg):\n"
            "    return arg\n")
        env = {**_child_env(), "REPRO_TEST_MARKER": str(marker)}
        env.pop("REPRO_FAULT", None)
        launcher = subprocess.Popen(
            [sys.executable, "-c", DOOMED_LAUNCHER, f"{target}:body", "x"],
            env=env)
        try:
            deadline = time.monotonic() + TIMEOUT
            while not marker.exists():
                assert launcher.poll() is None, launcher.returncode
                assert time.monotonic() < deadline, "no import began"
                time.sleep(0.02)
            proxy_and_zygote = [int(pid) for pid in
                                marker.read_text().split()]
            launcher.kill()
            launcher.wait()
            killed = time.monotonic()
            while [pid for pid in proxy_and_zygote if alive(pid)] \
                    and time.monotonic() - killed < 3.0:
                time.sleep(0.02)
            assert [pid for pid in proxy_and_zygote if alive(pid)] == []
        finally:
            if launcher.poll() is None:
                launcher.kill()
                launcher.wait()

    @pytest.mark.parametrize("nprocs", [2, 4])
    @pytest.mark.parametrize("shm", ["0", "1"])
    def test_a_rank_imports_nothing_after_its_fork(self, shm, nprocs,
                                                   monkeypatch, tmp_path):
        """Between the fork and the target, and in point-to-point,
        object, nonblocking, derived-type and collective traffic: every
        module a rank uses was imported by the zygote or the proxy (a
        dial that resolves its host in Python imports the ``idna``
        codec; under ``REPRO_SANITIZE=1`` the sanitizer must come from
        the zygote)."""
        monkeypatch.setenv("REPRO_SHM", shm)
        target = tmp_path / "fork_imports_target.py"
        target.write_text(FORK_IMPORTS_TARGET)
        assert procrun(nprocs, f"{target}:body", timeout=20) \
            == [[]] * nprocs

    def test_back_to_back_jobs_share_one_zygote(self):
        first = procrun(2, job_state_body, timeout=20)
        second = procrun(NPROCS, job_state_body, timeout=20)
        zygotes = {zygote for zygote, _, _ in first + second}
        assert len(zygotes) == 1, zygotes
        assert_no_worker_survives()

    def test_a_job_does_not_see_the_last_jobs_modules(self, monkeypatch,
                                                      tmp_path):
        """The proxy imported them, and it is gone: the zygote never
        imports user code."""
        log = tmp_path / "imports.log"
        target = tmp_path / "first_job_target.py"
        target.write_text(IMPORT_LOGGING_TARGET)
        monkeypatch.setenv("REPRO_TEST_IMPORT_LOG", str(log))
        first = procrun(2, f"{target}:body", timeout=20)
        second = procrun(2, modules_body,
                         args=("_repro_target_first_job_target",),
                         timeout=20)
        assert {gpid for _, _, gpid in first} \
            == {zygote for zygote, _ in second}
        assert [seen for _, seen in second] == [False, False]
        assert len(log.read_text().split()) == 1

    def test_output_printed_at_import_appears_once(self, capfd, tmp_path):
        """The proxy flushes it before it forks the ranks."""
        target = tmp_path / "noisy_target.py"
        target.write_text("import os\n"
                          "print(f'imported by {os.getpid()}')\n"
                          "def body():\n"
                          "    return 0\n")
        capfd.readouterr()
        assert procrun(NPROCS, f"{target}:body", timeout=20) \
            == [0] * NPROCS
        out = capfd.readouterr().out
        assert out.count("imported by") == 1, out

    def test_an_import_that_starts_a_thread_fails_every_rank(
            self, tmp_path):
        """Ranks are forked from the proxy, which must be single-threaded
        when it forks: no rank starts, every rank's failure names the
        thread, and nothing is left behind."""
        target = tmp_path / "threaded_target.py"
        target.write_text("import threading, time\n"
                          "threading.Thread(target=time.sleep, args=(30,),\n"
                          "                 name='import-time-sleeper')"
                          ".start()\n"
                          "def body():\n"
                          "    return 0\n")
        t0 = time.monotonic()
        with pytest.raises(RankFailure) as ei:
            procrun(NPROCS, f"{target}:body", timeout=20)
        assert time.monotonic() - t0 < 10.0
        failures = ei.value.failures
        assert set(failures) == set(range(NPROCS)), failures
        assert all("import-time-sleeper" in str(f)
                   for f in failures.values()), failures
        assert_no_worker_survives()
        assert procrun(2, rank_report_body, timeout=20)

    @pytest.mark.parametrize("failure", ["killed zygote", "bootstrap fault",
                                         "timeout", "environment change"])
    def test_the_job_after_a_failure_gets_a_fresh_zygote(self, failure,
                                                         monkeypatch):
        """Twice over, so the hard-kill matrix runs twice in one
        session: a healthy job, the failure on the same zygote, and a
        healthy job that must get a new zygote and succeed."""
        if failure == "bootstrap fault":
            # the healthy jobs' ranks 0 and 1 live; rank 3 of a 4-rank
            # job dies where the fault puts it
            monkeypatch.setenv("REPRO_FAULT", "bootstrap:3")
        healthy = procrun(2, job_state_body, timeout=20)
        for round in range(2):
            before = healthy[0][0]
            if failure == "killed zygote":
                with pytest.raises(RankFailure, match="zygote died"):
                    procrun(2, zygote_killer_body, timeout=20)
            elif failure == "bootstrap fault":
                with pytest.raises(RankFailure, match="exit code 86"):
                    procrun(4, launch_report_body, timeout=20)
            elif failure == "timeout":
                with pytest.raises(JobTimeoutError):
                    ProcExecutor(2).run(hang_body, args=("sleep", 3.0),
                                        timeout=1.0)
            else:
                monkeypatch.setenv("REPRO_TEST_LAUNCH_MARK", str(round))
            healthy = procrun(2, job_state_body, timeout=20)
            assert len({z for z, _, _ in healthy}) == 1, healthy
            assert healthy[0][0] != before, (failure, round)
            assert_no_worker_survives()

    def test_an_idle_zygote_lingers_then_exits(self):
        procrun(2, job_state_body, timeout=20)
        deadline = time.monotonic() + LINGER_S + 2.0
        while worker_processes() and time.monotonic() < deadline:
            time.sleep(0.05)
        assert not worker_processes(), "the idle zygote did not exit"
        # the next job simply starts a fresh one
        assert len({p for p, _, _ in procrun(2, job_state_body,
                                             timeout=20)}) == 1

    def test_a_reused_zygote_serves_each_job_its_cwd_and_affinity(
            self, monkeypatch, tmp_path):
        allowed = os.sched_getaffinity(0)
        rows = []
        try:
            for mark, cpus in (("wide", allowed), ("narrow",
                                                   {max(allowed)})):
                where = tmp_path / mark
                where.mkdir()
                monkeypatch.chdir(where)
                os.sched_setaffinity(0, cpus)
                got = procrun(2, job_state_body, timeout=20)
                assert [(cwd, cpu) for _, cwd, cpu in got] \
                    == [(str(where), sorted(cpus))] * 2
                rows += got
        finally:
            os.sched_setaffinity(0, allowed)
        assert len({zygote for zygote, _, _ in rows}) == 1, rows

    def test_a_reused_zygote_prints_to_this_jobs_stdout(self, capfd,
                                                         tmp_path):
        """pytest swaps fd 1 per test; here the first job's fd 1 is a
        file and the second's is the capture, on one zygote."""
        first_out = tmp_path / "first.out"
        saved = os.dup(1)
        try:
            with open(first_out, "wb") as f:
                os.dup2(f.fileno(), 1)
            first = procrun(2, print_body, args=("first",), timeout=20)
        finally:
            os.dup2(saved, 1)
            os.close(saved)
        second = procrun(2, print_body, args=("second",), timeout=20)
        assert len(set(first + second)) == 1, (first, second)   # zygotes
        out = capfd.readouterr().out
        assert out.count("says second") == 2 and "first" not in out, out
        text = first_out.read_text()
        assert text.count("says first") == 2 and "second" not in text

    @pytest.mark.parametrize("victim,shm", [(0, "0"), (NPROCS - 1, "1")])
    def test_a_rank_stopped_at_bootstrap_leaves_no_process(
            self, victim, shm, monkeypatch):
        """A rank that stops itself at its first act has closed every fd
        that is not its own and dies with its proxy, so the teardown
        leaves no process behind.  Over sockets alone the others finish
        and it alone is hung at the deadline; with lanes the others wait
        for its hello and are hung too."""
        monkeypatch.setenv("REPRO_FAULT", f"bootstrap:{victim}::stop")
        monkeypatch.setenv("REPRO_SHM", shm)
        with pytest.raises(JobTimeoutError) as ei:
            procrun(NPROCS, "os:getpid", timeout=2.0)
        hung = [victim] if shm == "0" else list(range(NPROCS))
        assert ei.value.hung_ranks == hung, ei.value
        assert not ei.value.failures, ei.value.failures
        assert_no_worker_survives()

    @pytest.mark.parametrize("victim", [0, NPROCS - 1])
    def test_rank_dead_before_its_connection_is_that_ranks_failure(
            self, victim, monkeypatch):
        """Nothing of the victim ever reaches the launcher: its parent's
        ``exited`` notice is all there is, and it carries the code."""
        monkeypatch.setenv("REPRO_FAULT", f"bootstrap:{victim}")
        t0 = time.monotonic()
        with pytest.raises(RankFailure) as ei:
            procrun(NPROCS, launch_report_body, timeout=20)
        assert time.monotonic() - t0 < 10.0
        assert set(ei.value.failures) == {victim}, ei.value.failures
        text = str(ei.value.failures[victim])
        assert "bootstrap" in text and "exit code 86" in text, text
        assert_no_worker_survives()


class TestShmWithoutATracker:
    """Shared-memory segments are mapped without ``multiprocessing``'s
    resource tracker, so an shm job's ranks fork nothing, and the
    segments of a job whose launcher was killed are unlinked by its
    zygote."""

    def test_no_rank_of_an_shm_job_has_a_child(self, monkeypatch):
        monkeypatch.setenv("REPRO_SHM", "1")
        out = procrun(2, lanes_and_children_body, timeout=TIMEOUT)
        for paths, children in out:
            assert paths and "socket" not in paths.values(), paths
            assert children == [], children

    def test_a_killed_launcher_leaves_no_segment_and_no_worker(
            self, tmp_path):
        env = {**_child_env(), "REPRO_SHM": "1"}
        env.pop("REPRO_FAULT", None)
        launcher = subprocess.Popen(
            [sys.executable, "-c", DOOMED_LAUNCHER,
             f"{os.path.abspath(__file__)}:pids_then_sleep_body",
             str(tmp_path)], env=env)
        try:
            deadline = time.monotonic() + TIMEOUT
            while len(list(tmp_path.glob("rank?"))) < 2:
                assert launcher.poll() is None, launcher.returncode
                assert time.monotonic() < deadline, "ranks never started"
                time.sleep(0.02)
            pids = {int(pid) for path in tmp_path.glob("rank?")
                    for pid in path.read_text().split()}
            nonce = f"{launcher.pid:x}j1"   # its first job
            assert len(leaked_segments(nonce, 2)) == 2   # the lanes are up
            launcher.kill()
            launcher.wait()
            killed = time.monotonic()
            while (leaked_segments(nonce, 2)
                   or [pid for pid in pids if alive(pid)]) \
                    and time.monotonic() - killed < 3.0:
                time.sleep(0.02)
            assert leaked_segments(nonce, 2) == []
            assert [pid for pid in pids if alive(pid)] == []
        finally:
            if launcher.poll() is None:
                launcher.kill()
                launcher.wait()


class TestFaultContainment:
    def test_exception_roundtrips_type_and_message(self):
        with pytest.raises(RankFailure) as ei:
            procrun(NPROCS, failing_rank_body, args=(2 % NPROCS,),
                    timeout=TIMEOUT)
        failures = ei.value.failures
        fail_rank = 2 % NPROCS
        assert isinstance(failures[fail_rank], ValueError)
        assert str(failures[fail_rank]) == f"boom at rank {fail_rank}"
        # the formatted child traceback rides along for diagnosis
        assert "ValueError" in getattr(failures[fail_rank],
                                       "remote_traceback", "")

    def test_victims_fold_to_origin(self):
        with pytest.raises(RankFailure) as ei:
            procrun(NPROCS, failing_rank_body, args=(0,), timeout=TIMEOUT)
        # victims unwound with AbortException and fold back to rank 0:
        # only the origin appears, carrying its own ValueError
        assert set(ei.value.failures) == {0}
        assert isinstance(ei.value.failures[0], ValueError)

    def test_cross_process_abort_unwinds_under_2s(self):
        with pytest.raises(RankFailure) as ei:
            procrun(NPROCS, timed_victim_body, args=(0,), timeout=TIMEOUT)
        failures = ei.value.failures
        victims = {r: f for r, f in failures.items()
                   if isinstance(f, RuntimeError)}
        assert victims, f"no timed victims in {failures!r}"
        for rank, failure in victims.items():
            dt = float(str(failure).split()[-1])
            assert dt < UNWIND_BOUND, \
                f"rank {rank} took {dt:.3f}s to unwind across processes"

    @pytest.mark.parametrize("handler", ["fatal", "return"])
    def test_user_op_failure_poisons_job(self, handler):
        with pytest.raises(RankFailure) as ei:
            procrun(NPROCS, user_op_failure_body, args=(handler,),
                    timeout=TIMEOUT)
        roots = [f.__cause__ if f.__cause__ is not None else f
                 for f in ei.value.failures.values()]
        assert any(isinstance(r, ValueError) for r in roots), \
            ei.value.failures

    def test_death_between_collectives_unblocks_peers(self):
        with pytest.raises(RankFailure) as ei:
            procrun(NPROCS, death_between_collectives_body,
                    timeout=TIMEOUT)
        assert set(ei.value.failures) == {1}
        assert isinstance(ei.value.failures[1], ValueError)


class TestTimeoutReporting:
    def test_timeout_reports_failures_and_hung_ranks(self):
        """Satellite: a deadline must not mask already-collected failures."""
        behaviour = [("raise", "early death"), ("sleep", 30.0)]
        t0 = time.monotonic()
        with pytest.raises(JobTimeoutError) as ei:
            ProcExecutor(2).run(hang_body, args=behaviour,
                                per_rank_args=True, timeout=8.0)
        assert time.monotonic() - t0 < 25.0
        exc = ei.value
        assert exc.hung_ranks == [1]
        assert set(exc.failures) == {0}
        assert isinstance(exc.failures[0], ValueError)
        assert "early death" in str(exc.failures[0])
        # and the message carries both facts
        assert "did not finish" in str(exc)
        assert "failed before the deadline" in str(exc)
        # rank 1 sat in time.sleep, deaf to the abort: it was killed by
        # its parent, the job's proxy, on the launcher's teardown
        assert_no_worker_survives()

    def test_a_rank_that_unwound_on_the_abort_ends_with_the_deadline(
            self):
        """A rank blocked in ``Recv`` unwinds on the deadline's abort;
        closing its control connection ends it, so the job does not sit
        out the SIGKILL grace that only wedged ranks need."""
        deadline = 2.0
        t0 = time.monotonic()
        with pytest.raises(JobTimeoutError) as ei:
            ProcExecutor(2).run(blocked_recv_body, timeout=deadline)
        took = time.monotonic() - t0
        assert ei.value.hung_ranks == [1]
        assert took < deadline + 1.0, f"raised after {took:.2f} s"
        assert_no_worker_survives()

    def test_an_import_that_wedges_leaves_every_rank_hung_at_the_deadline(
            self, tmp_path):
        """The job's proxy never gets to fork: every rank is hung, and
        the job ends with its deadline, not a kill grace later."""
        target = tmp_path / "wedged_import.py"
        target.write_text("import time\n"
                          "time.sleep(30)\n"
                          "def body():\n"
                          "    return 0\n")
        deadline = 2.0
        t0 = time.monotonic()
        with pytest.raises(JobTimeoutError) as ei:
            procrun(NPROCS, f"{target}:body", timeout=deadline)
        took = time.monotonic() - t0
        assert ei.value.hung_ranks == list(range(NPROCS))
        assert took < deadline + 1.0, f"raised after {took:.2f} s"
        assert_no_worker_survives()

    def test_a_rank_that_failed_before_the_deadline_is_not_hung(
            self, monkeypatch, tmp_path):
        """The job's proxy imports the target first, and fails; so does
        the first rank to import it again, at once; the others wedge
        inside the import past the deadline.  Whatever the order they
        are read in, the failed rank is a failure and only the others
        are hung."""
        target = tmp_path / "first_imports_fail.py"
        target.write_text(
            "import os, time\n"
            "def first(marker):\n"
            "    try:\n"
            "        os.close(os.open(marker, os.O_CREAT | os.O_EXCL))\n"
            "    except FileExistsError:\n"
            "        return False\n"
            "    return True\n"
            "if not (first(os.environ['REPRO_TEST_MARKER'] + '.proxy')\n"
            "        or first(os.environ['REPRO_TEST_MARKER'] + '.rank')):\n"
            "    time.sleep(30)\n"
            "raise ImportError(f'early importer, pid {os.getpid()}')\n"
            "def body():\n"
            "    return 0\n")
        monkeypatch.setenv("REPRO_TEST_MARKER", str(tmp_path / "marker"))
        with pytest.raises(JobTimeoutError) as ei:
            procrun(NPROCS, f"{target}:body", timeout=3.0)
        exc = ei.value
        assert len(exc.failures) == 1, exc.failures
        (failed,) = exc.failures
        assert isinstance(exc.failures[failed], ImportError)
        assert failed not in exc.hung_ranks
        assert exc.hung_ranks == sorted(set(range(NPROCS)) - {failed})
        assert_no_worker_survives()
