"""Rank bodies of the seven workloads.

Each body runs on every rank of a fresh job.  The shape is always the
same: ``Init`` and a first ``Barrier`` (the end of set-up), inputs made
from the seed, a second ``Barrier``, the timed closed loop with one clock
sample per operation on rank 0, a last ``Barrier``, then the output check.
Checks inside the loop are O(1) per operation; everything that walks a
whole buffer happens after the loop.

A body returns a dict per rank (see :meth:`_Job.report`).  ``cfg`` carries
``ops`` (operations in this segment), ``seed``, ``segment``, ``traced``
and ``procs`` (one process per rank, as opposed to rank-threads).
"""

from __future__ import annotations

import resource
import time

import numpy as np

import inputs
from spans import Spans

from repro.datatypes.packing import DATAPATH
from repro.mpijava import MPI, Request
from repro.obs.metrics import REGISTRY
from repro.runtime.mailbox import MAILBOX_METRICS

_pc = time.perf_counter

TAG_PING, TAG_PONG, TAG_ACK = 11, 12, 13
TAG_WORK, TAG_RESULT, TAG_STOP = 1, 2, 3
TAG_N, TAG_S, TAG_W, TAG_E = 21, 22, 23, 24


def _counters() -> dict:
    """This process's always-on counters, flattened to ``group.key``."""
    out = {}
    for group, snap in (("wire", REGISTRY.aggregate("wire")),
                        ("mailbox", MAILBOX_METRICS.snapshot()),
                        ("datapath", DATAPATH.snapshot())):
        for key, value in snap.items():
            out[f"{group}.{key}"] = value
    return out


def _peak_rss_kib() -> int:
    """High-water RSS of this process image.  Not ``ru_maxrss``: a child
    inherits that from the process that forked it, so a rank would report
    the launcher's size whenever the launcher is the bigger of the two."""
    with open("/proc/self/status") as f:
        for line in f:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise RuntimeError("no VmHWM line in /proc/self/status")


def _cpu_s() -> float:
    ru = resource.getrusage(resource.RUSAGE_SELF)
    return ru.ru_utime + ru.ru_stime


class _Job:
    """Bookkeeping every body shares: set-up stamp, timed region, report."""

    def __init__(self, cfg: dict):
        self.spans = Spans(cfg["traced"])
        MPI.Init([])
        self.world = self.spans.wrap(MPI.COMM_WORLD)
        self.rank = self.world.Rank()
        self.world.Barrier()
        #: wall-clock moment this rank left its first barrier
        self.t_ready = time.time()
        #: process-wide figures (CPU, RSS, counters) are reported once
        #: per process: by every rank under procs, by rank 0 under threads
        self.lead = cfg["procs"] or self.rank == 0
        self.gen = inputs.rng(cfg["seed"], cfg["workload"], cfg["segment"])

    def start(self) -> None:
        self.world.Barrier()
        self._c0 = _counters()
        self._cpu0 = _cpu_s()
        self._t0 = _pc()

    def stop(self) -> None:
        self.wall = _pc() - self._t0
        self.cpu = _cpu_s() - self._cpu0
        c1 = _counters()
        self.counters = {k: c1[k] - self._c0.get(k, 0) for k in c1}
        self.spans.op = -1
        self.world.Barrier()

    def report(self, bad: int, starts=None, samples=None,
               payload_bytes: int = 0, output=None) -> dict:
        """Finalize and build this rank's result.

        ``samples``: seconds per operation, one entry per timed sample
        (rank 0); ``bad``: outputs that failed their check on this rank.
        """
        MPI.Finalize()
        if samples is not None:
            self.spans.add_ops(starts, samples)
        return {
            "t_ready": self.t_ready,
            "wall_s": self.wall,
            "cpu_s": self.cpu if self.lead else 0.0,
            "maxrss_kib": _peak_rss_kib() if self.lead else 0,
            "counters": self.counters if self.lead else {},
            "samples_s": samples,
            "payload_bytes": payload_bytes,
            "bad": int(bad),
            "spans": self.spans.pack(),
            "output": output,
        }


# ---------------------------------------------------------------------------
# pp_small_shm / pp_small_tcp: 8-byte blocking pingpong
# ---------------------------------------------------------------------------

def pp_small(cfg: dict) -> dict:
    """op = one one-way 8-byte message; ``ops / 2`` round trips."""
    job = _Job(cfg)
    world, rank, sp = job.world, job.rank, job.spans
    trips = cfg["ops"] // 2
    base = int(job.gen.integers(1, 1 << 40))
    buf = np.zeros(8, dtype=np.int8)
    stamp = buf.view(np.int64)        # the 8 payload bytes as one integer
    starts = np.empty(trips)
    times = np.empty(trips)
    bad = 0
    job.start()
    if rank == 0:
        for i in range(trips):
            sp.op = i
            stamp[0] = base + i
            a = _pc()
            world.Send(buf, 0, 8, MPI.BYTE, 1, TAG_PING)
            world.Recv(buf, 0, 8, MPI.BYTE, 1, TAG_PONG)
            b = _pc()
            starts[i] = a
            times[i] = b - a
            bad += stamp[0] != base + i + 1
    else:
        for i in range(trips):
            sp.op = i
            world.Recv(buf, 0, 8, MPI.BYTE, 0, TAG_PING)
            bad += stamp[0] != base + i
            stamp[0] += 1
            world.Send(buf, 0, 8, MPI.BYTE, 0, TAG_PONG)
    job.stop()
    want = np.array([base + trips], dtype=np.int64).view(np.int8)
    bad += not np.array_equal(buf, want)
    if rank:
        return job.report(bad)
    # one sample per round trip, halved: the one-way time of each message
    return job.report(bad, starts=starts, samples=times / 2,
                      payload_bytes=8 * 2 * trips)


# ---------------------------------------------------------------------------
# pp_large_shm: 4 MiB strided ping, 4 MiB contiguous pong
# ---------------------------------------------------------------------------

def pp_large(cfg: dict) -> dict:
    """op = one round trip moving 8 MiB of payload."""
    job = _Job(cfg)
    world, rank, sp = job.world, job.rank, job.spans
    trips = cfg["ops"]
    ping_data = job.gen.standard_normal(inputs.LARGE_BYTES // 8)
    pong_data = job.gen.integers(-128, 128, inputs.LARGE_BYTES,
                                 dtype=np.int8)
    vec = MPI.DOUBLE.Vector(inputs.VEC_COUNT, inputs.VEC_BLOCK,
                            inputs.VEC_STRIDE).Commit()
    strided = inputs.strided_buffer(ping_data if rank == 0 else None)
    dense = pong_data.copy() if rank == 1 \
        else np.zeros(inputs.LARGE_BYTES, dtype=np.int8)
    stamp = dense.view(np.int64)      # first 8 pong bytes carry the stamp
    starts = np.empty(trips)
    times = np.empty(trips)
    bad = 0
    job.start()
    if rank == 0:
        for i in range(trips):
            sp.op = i
            strided[0] = float(i)
            a = _pc()
            world.Send(strided, 0, 1, vec, 1, TAG_PING)
            world.Recv(dense, 0, inputs.LARGE_BYTES, MPI.BYTE, 1, TAG_PONG)
            b = _pc()
            starts[i] = a
            times[i] = b - a
            bad += stamp[0] != i
    else:
        for i in range(trips):
            sp.op = i
            world.Recv(strided, 0, 1, vec, 0, TAG_PING)
            bad += strided[0] != float(i)
            stamp[0] = i
            world.Send(dense, 0, inputs.LARGE_BYTES, MPI.BYTE, 0, TAG_PONG)
    job.stop()
    vec.Free()
    # full-buffer compares: what each side received, gaps included
    if rank == 0:
        want = pong_data.copy()
        want.view(np.int64)[0] = trips - 1
        bad += not np.array_equal(dense, want)
        return job.report(bad, starts=starts, samples=times,
                          payload_bytes=2 * inputs.LARGE_BYTES * trips)
    ping_data[0] = float(trips - 1)
    bad += not np.array_equal(strided, inputs.strided_buffer(ping_data))
    return job.report(bad)


# ---------------------------------------------------------------------------
# msgrate_tcp: windows of 64 x 1 KiB Isend against pre-posted Irecv
# ---------------------------------------------------------------------------

def msgrate(cfg: dict) -> dict:
    """op = one 1 KiB message; ``ops / 64`` windows, each closed by an
    8-byte ack.

    The receiver posts the next window's 64 receives (into the other of
    two slot buffers) *before* it acks the current one, so every message
    finds its receive posted.  Acking first lets the next window race the
    posting; that variant ran a third faster here but its median moved
    three times as much from run to run."""
    job = _Job(cfg)
    world, rank, sp = job.world, job.rank, job.spans
    waitall = sp.wrap(Request).Waitall
    W, B = inputs.WINDOW, inputs.MSG_BYTES
    windows = cfg["ops"] // W
    fill = job.gen.integers(-128, 128, W * B, dtype=np.int8)
    numbers = np.arange(W, dtype=np.int64)
    ack = np.zeros(8, dtype=np.int8)
    starts = np.empty(windows)
    times = np.empty(windows)

    def stamps(buf):
        """First 8 bytes of each slot: the message's running number."""
        return buf.view(np.int64)[::B // 8]

    if rank == 0:
        slots = fill.copy()
        job.start()
        for w in range(windows):
            sp.op = w
            stamps(slots)[:] = numbers + w * W
            a = _pc()
            reqs = [world.Isend(slots, k * B, B, MPI.BYTE, 1, TAG_PING)
                    for k in range(W)]
            waitall(reqs)
            world.Recv(ack, 0, 8, MPI.BYTE, 1, TAG_ACK)
            b = _pc()
            starts[w] = a
            times[w] = b - a
        job.stop()
        return job.report(0, starts=starts, samples=times / W,
                          payload_bytes=windows * (W * B + 8))

    halves = [np.zeros(W * B, dtype=np.int8) for _ in range(2)]

    def post(w):
        return [world.Irecv(halves[w & 1], k * B, B, MPI.BYTE, 0, TAG_PING)
                for k in range(W)]

    stamp_sum = 0
    posted = post(0)
    job.start()
    for w in range(windows):
        sp.op = w
        waitall(posted)
        if w + 1 < windows:
            posted = post(w + 1)
        world.Send(ack, 0, 8, MPI.BYTE, 0, TAG_ACK)
        # this half is not posted again before the next ack: the sum is
        # taken off the sender's clock
        stamp_sum += int(stamps(halves[w & 1]).sum())
    job.stop()
    total = windows * W
    bad = int(stamp_sum != total * (total - 1) // 2)
    for w in range(max(0, windows - 2), windows):      # both halves, whole
        want = fill.copy()
        stamps(want)[:] = numbers + w * W
        bad += not np.array_equal(halves[w & 1], want)
    return job.report(bad)


# ---------------------------------------------------------------------------
# coll_mix_tcp: a round of five collectives
# ---------------------------------------------------------------------------

def coll_payload_bytes(p: int) -> int:
    """Result bytes one round delivers into user buffers, over all ranks:
    Bcast to p-1 ranks, two Allreduce results and the Alltoall blocks."""
    return (8 * (p - 1) + 8 * p + 8 * inputs.COLL_LARGE * p
            + 8 * inputs.COLL_BLOCK * p * p)


def coll_mix(cfg: dict) -> dict:
    """op = one round of Barrier, Bcast 8 B, Allreduce(SUM) of 1 and of
    32 768 doubles, Alltoall of 512 doubles per peer."""
    job = _Job(cfg)
    world, rank, sp = job.world, job.rank, job.spans
    p = world.Size()
    rounds = cfg["ops"]
    L, K = inputs.COLL_LARGE, inputs.COLL_BLOCK
    tri = p * (p + 1) // 2
    # small whole numbers: every partial sum is exact in a double, so the
    # closed forms hold whatever order the reduction tree adds in
    base = job.gen.integers(0, 1000, L).astype(np.float64)
    word = np.zeros(1, dtype=np.int64)
    one_in, one_out = np.zeros(1), np.zeros(1)
    big_in, big_out = base * (rank + 1), np.zeros(L)
    # block j goes to rank j and holds rank * p + j; rank i therefore
    # receives j * p + i from rank j
    sends = np.arange(p, dtype=np.float64) + rank * p
    peers = np.arange(p, dtype=np.float64) * p + rank
    a2a_in, a2a_out = np.repeat(sends, K), np.zeros(p * K)
    starts = np.empty(rounds)
    times = np.empty(rounds)
    bad = 0
    job.start()
    for r in range(rounds):
        sp.op = r
        word[0] = 7 * r if rank == 0 else -1
        one_in[0] = (rank + 1) * (r + 1)
        big_in[0] = r * (rank + 1)
        a2a_in[::K] = sends + r
        a = _pc()
        world.Barrier()
        world.Bcast(word, 0, 1, MPI.LONG, 0)
        world.Allreduce(one_in, 0, one_out, 0, 1, MPI.DOUBLE, MPI.SUM)
        world.Allreduce(big_in, 0, big_out, 0, L, MPI.DOUBLE, MPI.SUM)
        world.Alltoall(a2a_in, 0, K, MPI.DOUBLE, a2a_out, 0, K, MPI.DOUBLE)
        b = _pc()
        starts[r] = a
        times[r] = b - a
        bad += (word[0] != 7 * r) + (one_out[0] != tri * (r + 1)) \
            + (big_out[0] != tri * r) + (big_out[-1] != tri * base[-1]) \
            + (a2a_out[0] != rank + r) \
            + (a2a_out[-K] != (p - 1) * p + rank + r)
    job.stop()
    want_big = base * tri
    want_big[0] = tri * (rounds - 1)
    want_a2a = np.repeat(peers, K)
    want_a2a[::K] += rounds - 1
    bad += not np.array_equal(big_out, want_big)
    bad += not np.array_equal(a2a_out, want_a2a)
    if rank:
        return job.report(bad)
    return job.report(bad, starts=starts, samples=times,
                      payload_bytes=coll_payload_bytes(p) * rounds)


# ---------------------------------------------------------------------------
# laplace_sm: examples/laplace2d.py's solver, seeded boundary
# ---------------------------------------------------------------------------

def laplace(cfg: dict) -> dict:
    """op = one Jacobi iteration (four halo Sendrecv, the sweep, one
    Allreduce(MAX)) of an n x n problem on a 2-D process grid."""
    from repro.mpijava.cartcomm import Cartcomm
    job = _Job(cfg)
    world, sp = job.world, job.spans
    n, iters = cfg["n"], cfg["ops"]
    left = inputs.laplace_boundary(job.gen, n)
    pdims = Cartcomm.Create_dims(world.Size(), [0, 0])
    cart = world.Create_cart(pdims, [False, False], False)
    py, px = cart.Get().coords
    ny, nx = n // pdims[0], n // pdims[1]
    ldy, ldx = ny + 2, nx + 2
    u = np.zeros(ldy * ldx)
    if px == 0:
        u.reshape(ldy, ldx)[:, 0] = left[py * ny:py * ny + ldy]
    unew = u.copy()

    def idx(i, j):
        return i * ldx + j

    north = cart.Shift(0, 1)
    west = cart.Shift(1, 1)
    column = MPI.DOUBLE.Vector(ny, 1, ldx).Commit()
    resid, gresid = np.zeros(1), np.zeros(1)
    starts = np.empty(iters)
    times = np.empty(iters)
    job.start()
    for it in range(iters):
        sp.op = it
        a = _pc()
        cart.Sendrecv(u, idx(ny, 1), nx, MPI.DOUBLE, north.rank_dest, TAG_S,
                      u, idx(0, 1), nx, MPI.DOUBLE, north.rank_source,
                      TAG_S)
        cart.Sendrecv(u, idx(1, 1), nx, MPI.DOUBLE, north.rank_source,
                      TAG_N, u, idx(ny + 1, 1), nx, MPI.DOUBLE,
                      north.rank_dest, TAG_N)
        cart.Sendrecv(u, idx(1, nx), 1, column, west.rank_dest, TAG_E,
                      u, idx(1, 0), 1, column, west.rank_source, TAG_E)
        cart.Sendrecv(u, idx(1, 1), 1, column, west.rank_source, TAG_W,
                      u, idx(1, nx + 1), 1, column, west.rank_dest, TAG_W)
        grid = u.reshape(ldy, ldx)
        new = unew.reshape(ldy, ldx)
        new[1:-1, 1:-1] = 0.25 * (grid[:-2, 1:-1] + grid[2:, 1:-1]
                                  + grid[1:-1, :-2] + grid[1:-1, 2:])
        resid[0] = np.abs(new[1:-1, 1:-1] - grid[1:-1, 1:-1]).max()
        u, unew = unew, u
        cart.Allreduce(resid, 0, gresid, 0, 1, MPI.DOUBLE, MPI.MAX)
        times[it] = _pc() - a
        starts[it] = a
    job.stop()
    column.Free()
    patch = u.reshape(ldy, ldx)[1:-1, 1:-1].copy()
    output = {"coords": (py, px), "patch": patch, "resid": float(gresid[0])}
    if job.rank:
        return job.report(0, output=output)
    # halo bytes received per iteration over all ranks + the residual
    neighbours = 2 * (pdims[0] - 1) * pdims[1] * nx \
        + 2 * (pdims[1] - 1) * pdims[0] * ny
    return job.report(0, starts=starts, samples=times, output=output,
                      payload_bytes=(8 * neighbours + 8 * world.Size())
                      * iters)


# ---------------------------------------------------------------------------
# taskfarm_tcp: examples/object_taskfarm.py's protocol, seeded blobs
# ---------------------------------------------------------------------------

def taskfarm(cfg: dict) -> dict:
    """op = one task, dispatch to result; rank 0 farms dicts out over
    ``MPI.OBJECT`` and takes results from ``ANY_SOURCE``; workers
    ``Probe(ANY_TAG)`` for work or the stop message."""
    job = _Job(cfg)
    world, rank, sp = job.world, job.rank, job.spans
    ntasks = cfg["ops"]
    box = [None]
    if rank:
        job.start()
        while True:
            status = world.Probe(0, MPI.ANY_TAG)
            if status.tag == TAG_STOP:
                world.Recv(box, 0, 1, MPI.OBJECT, 0, TAG_STOP)
                break
            world.Recv(box, 0, 1, MPI.OBJECT, 0, TAG_WORK)
            task = box[0]
            sp.op = task["id"]
            reply = {"id": task["id"], "value": inputs.task_answer(task)}
            world.Send([reply], 0, 1, MPI.OBJECT, 0, TAG_RESULT)
        job.stop()
        return job.report(0)

    tasks = inputs.make_tasks(job.gen, ntasks)
    pending = list(reversed(tasks))
    idle = list(range(1, world.Size()))
    sent_at = np.zeros(ntasks)
    times = np.zeros(ntasks)
    answers = [None] * ntasks
    repeats = 0
    outstanding = 0
    job.start()
    while pending or outstanding:
        while pending and idle:
            task = pending.pop()
            sp.op = task["id"]
            sent_at[task["id"]] = _pc()
            world.Send([task], 0, 1, MPI.OBJECT, idle.pop(), TAG_WORK)
            outstanding += 1
        status = world.Recv(box, 0, 1, MPI.OBJECT, MPI.ANY_SOURCE,
                            TAG_RESULT)
        reply = box[0]
        tid = reply["id"]
        sp.set_last_op(tid)
        times[tid] = _pc() - sent_at[tid]
        repeats += answers[tid] is not None
        answers[tid] = reply["value"]
        idle.append(status.source)
        outstanding -= 1
    for w in range(1, world.Size()):
        world.Send([{"stop": True}], 0, 1, MPI.OBJECT, w, TAG_STOP)
    job.stop()
    wrong = sum(answers[t["id"]] != inputs.task_answer(t) for t in tasks)
    return job.report(repeats + wrong, starts=sent_at, samples=times,
                      payload_bytes=sum(len(t["blob"]) for t in tasks))
