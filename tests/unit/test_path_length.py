"""Path-length budget: Python-level calls per steady-state eager message.

Small messages are bound by interpreter path length, not bytes (ROADMAP
item 1), so the budget is counted, not timed: ``sys.setprofile`` ``call``
events (Python functions entered; C calls are not events of that kind)
on threads-DM, per blocking ``Send``/``Recv`` in the rank thread, per
frame in the pump thread, per ``Isend().Wait()`` + ``Irecv().Wait()``
pair, and per message of an ``Isend``/``Irecv``/``Waitall`` window of
64.  The counts are deterministic up to which side
of a match arrives first, so each is the median over iterations and the
budget has 10 % headroom — enough for that, far too little for a
per-message ``threading.Event`` (≈ 10 calls) or a failure-plane
subscription (≈ 8) to come back unnoticed.

The two structural facts behind the budget are asserted directly: posted
receives subscribe to nothing, and a request that completes before it is
waited on never builds a waiter.

Collectives get the same treatment on 4 rank-threads: a blocking
collective runs its rounds in the calling thread, so its whole path is
that thread's count — per ``Barrier``, 8-byte ``Allreduce`` and 256 KiB
``Allreduce`` — and the property "no allocation per round" is a
``tracemalloc`` peak, which a slower box does not move.
"""

from __future__ import annotations

import os
import statistics
import threading
import time
from collections import Counter

import numpy as np
import pytest

from repro.executor.runner import MPIExecutor
from repro.mpijava import MPI, Request

#: counts measured when the budget was last re-anchored (an mpiJava
#: member is one guarded stub call, and a request's error handler is
#: looked up only on error).  Earlier anchors, newest first: 68 / 22 / 33
#: / 40 and 95 for the wait pair (each member also called a cost-model
#: hook), 97 / 25 / 47 / 55 (a post-time window check), 100 / 39 / 47 /
#: 58, 127 / 51 / 57 / 74
BUDGET = {
    "send_recv_pair": 66,       # rank thread, one Send + one Recv
    "pump_frame": 22,           # pump thread, one eager frame per read
    "irecv_window_msg": 32,     # rank thread, per message: Irecv ... Waitall
    "isend_window_msg": 39,     # rank thread, per message: Isend ... Waitall
    "isend_irecv_wait_pair": 91,  # rank thread, Isend().Wait() + Irecv().Wait()
}
#: rank thread, one blocking collective on 4 ranks (PR 24: the rounds run
#: in the caller.  Its parent ran round 0 there and the rest in the pump:
#: 102 / 128 / 163 in the rank thread beside ~180 / ~210 / ~540 in its
#: pump, where the whole path is now this count plus ~22 per frame.
#: Before the stub and runtime stopped re-resolving: 144 / 178 / 205.
#: Before the stub called ``nbc.run`` on the plan itself, through a
#: one-line wrapper per collective: 127 / 160 / 187.  Before the
#: members stopped calling a cost-model hook: 126 / 159 / 186)
COLL_BUDGET = {
    "barrier": 126,             # 2 rounds of dissemination
    "allreduce_8B": 158,        # 2 rounds of recursive doubling, in place
    "allreduce_256KiB": 185,    # reduce + bcast; the tree's inner ranks
}
HEADROOM = 1.10
ITERS = 60
WINDOW = 64
LARGE = 32 * 1024               # doubles: the 256 KiB Allreduce


class CallCounter:
    """``threading.setprofile`` hook: Python-level calls per thread name."""

    def __init__(self):
        self.calls = Counter()

    def __call__(self, frame, event, arg):
        if event == "call":
            self.calls[threading.current_thread().name] += 1


def _pingpong(counter: CallCounter):
    MPI.Init([])
    world = MPI.COMM_WORLD
    rank = world.Rank()
    peer = 1 - rank
    me = threading.current_thread().name
    buf = np.zeros(8, dtype=np.int8)
    per_iter, pump = [], []
    for i in range(ITERS + 10):
        c0, p0 = counter.calls[me], counter.calls[f"repro-pump-{rank}"]
        if rank == 0:
            world.Send(buf, 0, 8, MPI.BYTE, peer, 1)
            world.Recv(buf, 0, 8, MPI.BYTE, peer, 2)
        else:
            world.Recv(buf, 0, 8, MPI.BYTE, peer, 1)
            world.Send(buf, 0, 8, MPI.BYTE, peer, 2)
        if i >= 10:                         # warm: caches, lazy imports
            per_iter.append(counter.calls[me] - c0)
            pump.append(counter.calls[f"repro-pump-{rank}"] - p0)
    waited = []
    for i in range(ITERS + 10):
        c0 = counter.calls[me]
        if rank == 0:
            world.Isend(buf, 0, 8, MPI.BYTE, peer, 3).Wait()
            world.Irecv(buf, 0, 8, MPI.BYTE, peer, 4).Wait()
        else:
            world.Irecv(buf, 0, 8, MPI.BYTE, peer, 3).Wait()
            world.Isend(buf, 0, 8, MPI.BYTE, peer, 4).Wait()
        if i >= 10:
            waited.append(counter.calls[me] - c0)
    MPI.Finalize()
    return (statistics.median(per_iter), statistics.median(pump),
            statistics.median(waited))


def _windows(counter: CallCounter):
    MPI.Init([])
    world = MPI.COMM_WORLD
    rank = world.Rank()
    me = threading.current_thread().name
    bufs = [np.zeros(1024, dtype=np.int8) for _ in range(WINDOW)]
    ack = np.zeros(1, dtype=np.int8)
    per_msg = []
    for i in range(12):
        if rank == 0:
            c0 = counter.calls[me]
            reqs = [world.Irecv(b, 0, 1024, MPI.BYTE, 1, 5) for b in bufs]
            posted = counter.calls[me] - c0
            world.Send(ack, 0, 1, MPI.BYTE, 1, 6)      # window is posted
            c0 = counter.calls[me]
            Request.Waitall(reqs)
            calls = posted + counter.calls[me] - c0
        else:
            world.Recv(ack, 0, 1, MPI.BYTE, 0, 6)
            c0 = counter.calls[me]
            Request.Waitall([world.Isend(b, 0, 1024, MPI.BYTE, 0, 5)
                             for b in bufs])
            calls = counter.calls[me] - c0
        if i >= 2:
            per_msg.append(calls / WINDOW)
    MPI.Finalize()
    return statistics.median(per_msg)


def _collectives(counter: CallCounter):
    MPI.Init([])
    world = MPI.COMM_WORLD
    me = threading.current_thread().name
    one_in, one_out = np.zeros(1), np.zeros(1)
    big_in, big_out = np.ones(LARGE), np.zeros(LARGE)
    medians = {}
    for name, call in (
            ("barrier", world.Barrier),
            ("allreduce_8B", lambda: world.Allreduce(
                one_in, 0, one_out, 0, 1, MPI.DOUBLE, MPI.SUM)),
            ("allreduce_256KiB", lambda: world.Allreduce(
                big_in, 0, big_out, 0, LARGE, MPI.DOUBLE, MPI.SUM))):
        per_call = []
        for i in range(ITERS // 2 + 10):
            c0 = counter.calls[me]
            call()
            if i >= 10:
                per_call.append(counter.calls[me] - c0)
        medians[name] = statistics.median(per_call)
    MPI.Finalize()
    return medians


def _counted(body, nprocs: int = 2):
    counter = CallCounter()
    threading.setprofile(counter)
    try:
        with MPIExecutor(nprocs, transport="socket") as ex:
            return ex.run(body, args=(counter,), timeout=120.0)
    finally:
        threading.setprofile(None)


#: the sanitizer's checksums and edge bookkeeping are extra calls by design
unsanitized = pytest.mark.skipif(
    os.environ.get("REPRO_SANITIZE") == "1",
    reason="the budget is the production path's, not the sanitizer's")


def _check(name: str, measured: float, budget=BUDGET) -> None:
    assert measured <= budget[name] * HEADROOM, \
        (f"{name}: {measured} Python calls, budget {budget[name]} "
         f"(+10 %): something per-message came back on the eager path")


@unsanitized
def test_blocking_pingpong_path_length():
    (pair0, pump0, wait0), (pair1, pump1, wait1) = _counted(_pingpong)
    _check("send_recv_pair", max(pair0, pair1))
    _check("pump_frame", max(pump0, pump1))
    _check("isend_irecv_wait_pair", max(wait0, wait1))


@unsanitized
def test_windowed_path_length():
    irecv_side, isend_side = _counted(_windows)
    _check("irecv_window_msg", irecv_side)
    _check("isend_window_msg", isend_side)


@unsanitized
def test_blocking_collective_path_length():
    per_rank = _counted(_collectives, nprocs=4)
    for name in COLL_BUDGET:
        _check(name, max(rank[name] for rank in per_rank), COLL_BUDGET)


def _large_allreduce_peak(in_step: threading.Barrier):
    import tracemalloc
    MPI.Init([])
    world = MPI.COMM_WORLD
    big_in, big_out = np.ones(LARGE), np.zeros(LARGE)

    def call():
        world.Allreduce(big_in, 0, big_out, 0, LARGE, MPI.DOUBLE, MPI.SUM)

    for _ in range(5):          # warm: the pumps' receive pools have grown
        call()
    peaks = []
    for _ in range(8):
        in_step.wait(30)
        if world.Rank() == 0:
            tracemalloc.start()
        in_step.wait(30)
        call()
        in_step.wait(30)        # not an MPI barrier: it would allocate too
        if world.Rank() == 0:
            peaks.append(tracemalloc.get_traced_memory()[1])
            tracemalloc.stop()
    MPI.Finalize()
    return peaks


@unsanitized
def test_large_allreduce_allocates_no_array_per_round():
    """The user buffers exist before the trace starts, so the peak is
    what four concurrent calls allocate: one vector-sized scratch at each
    of the reduction tree's two inner ranks, where their children's
    partials land, and nothing per round — the fold runs in the result
    window and the broadcast lands there.  Measured 529-531 KiB; a call
    in which a partial arrived before its receive was posted shows the
    unexpected queue's copy on top (785, 1 041 KiB), which is not the
    collective's to avoid, so the statement is about the best of eight.
    (The parent allocated a gather copy, a copy of that, and a payload
    copy plus a fold result *per round*: 3.2 MiB here.)"""
    vector = LARGE * 8
    with MPIExecutor(4, transport="socket") as ex:
        peaks = ex.run(_large_allreduce_peak, args=(threading.Barrier(4),),
                       timeout=120.0)[0]
    assert min(peaks) <= 2 * vector + 32 * 1024, peaks


def _frames_per_call(in_step: threading.Barrier, call) -> list[int]:
    """Frames the whole job sent in each of four calls of ``call``."""
    from repro.runtime.engine import current_runtime
    stats = current_runtime().universe.transport.wire_stats
    deltas = []
    for _ in range(4):
        in_step.wait(30)        # rank-threads share the counters
        before = stats.snapshot()
        in_step.wait(30)
        call()
        in_step.wait(30)
        after = stats.snapshot()
        deltas.append((after["tx_frames"] - before["tx_frames"],
                       after["eager_direct_frames"]
                       - before["eager_direct_frames"]))
    in_step.wait(30)
    return deltas


def _allreduce_frames(in_step: threading.Barrier):
    MPI.Init([])
    world = MPI.COMM_WORLD
    big_in, big_out = np.ones(LARGE), np.zeros(LARGE)
    deltas = _frames_per_call(in_step, lambda: world.Allreduce(
        big_in, 0, big_out, 0, LARGE, MPI.DOUBLE, MPI.SUM))
    exact = bool((big_out == world.Size()).all())
    MPI.Finalize()
    return exact, deltas


@pytest.mark.parametrize("nprocs", [3, 4])
def test_large_allreduce_frames_on_the_wire(nprocs):
    """A blocking 256 KiB ``Allreduce`` on ``socket`` (reduce + broadcast)
    sends exactly its schedule's messages — ``p - 1`` up the tree and
    ``p - 1`` down it: no control frame, no second frame for a payload —
    and a contribution that finds its receive posted streams off the
    socket into the array the ``Recv`` named."""
    from repro.runtime.collective.common import algorithm_for
    assert algorithm_for("allreduce", LARGE * 8) == "reduce_bcast"
    with MPIExecutor(nprocs, transport="socket") as ex:
        per_rank = ex.run(_allreduce_frames,
                          args=(threading.Barrier(nprocs),), timeout=60.0)
    assert all(exact for exact, _ in per_rank)
    deltas = per_rank[0][1]
    assert [tx for tx, _ in deltas] == [2 * (nprocs - 1)] * len(deltas)
    assert sum(direct for _, direct in deltas) > 0, deltas


def _large_bcast(in_step: threading.Barrier):
    from repro.datatypes.primitives import DOUBLE
    from repro.runtime import nbc
    from repro.runtime.collective.bcast import plan_bcast
    from repro.runtime.engine import current_runtime
    MPI.Init([])
    world = MPI.COMM_WORLD
    buf = np.full(2 * LARGE, float(world.Rank()))
    sched = nbc.Schedule()      # built on every rank: it draws a tag
    plan_bcast(current_runtime().comm_world, buf, 0, 2 * LARGE, DOUBLE,
               0)[1](sched)
    depth = sum(any(type(op) is not nbc.Compute for op in rnd)
                for rnd in sched.rounds)
    deltas = _frames_per_call(in_step, lambda: world.Bcast(
        buf, 0, 2 * LARGE, MPI.DOUBLE, 0))
    exact = not buf.any()
    MPI.Finalize()
    return exact, depth, deltas


def test_large_bcast_is_one_message_per_hop():
    """A blocking 512 KiB ``Bcast`` on 4 ranks is the binomial tree: the
    job sends ``p - 1`` frames, one whole message per edge, and the
    deepest rank's schedule is ``log2 p`` communication rounds."""
    nprocs = 4
    with MPIExecutor(nprocs, transport="socket") as ex:
        per_rank = ex.run(_large_bcast, args=(threading.Barrier(nprocs),),
                          timeout=60.0)
    assert all(exact for exact, _, _ in per_rank)
    assert max(depth for _, depth, _ in per_rank) == 2
    deltas = per_rank[0][2]
    assert [tx for tx, _ in deltas] == [nprocs - 1] * len(deltas)


def _every_blocking_collective():
    MPI.Init([])
    w = MPI.COMM_WORLD
    p = w.Size()
    a, b = np.ones(2 * p), np.zeros(2 * p)
    counts, displs = [2] * p, [2 * r for r in range(p)]
    w.Barrier()
    w.Bcast(a, 0, 2, MPI.DOUBLE, 0)
    w.Gather(a, 0, 2, MPI.DOUBLE, b, 0, 2, MPI.DOUBLE, 0)
    w.Gatherv(a, 0, 2, MPI.DOUBLE, b, 0, counts, displs, MPI.DOUBLE, 0)
    w.Scatter(a, 0, 2, MPI.DOUBLE, b, 0, 2, MPI.DOUBLE, 0)
    w.Scatterv(a, 0, counts, displs, MPI.DOUBLE, b, 0, 2, MPI.DOUBLE, 0)
    w.Allgather(a, 0, 2, MPI.DOUBLE, b, 0, 2, MPI.DOUBLE)
    w.Allgatherv(a, 0, 2, MPI.DOUBLE, b, 0, counts, displs, MPI.DOUBLE)
    w.Alltoall(a, 0, 2, MPI.DOUBLE, b, 0, 2, MPI.DOUBLE)
    w.Alltoallv(a, 0, counts, displs, MPI.DOUBLE,
                b, 0, counts, displs, MPI.DOUBLE)
    w.Reduce(a, 0, b, 0, 2, MPI.DOUBLE, MPI.SUM, 0)
    w.Allreduce(a, 0, b, 0, 2, MPI.DOUBLE, MPI.SUM)
    w.Reduce_scatter(a, 0, b, 0, counts, MPI.DOUBLE, MPI.SUM)
    w.Scan(a, 0, b, 0, 2, MPI.DOUBLE, MPI.SUM)
    w.Iallreduce(a, 0, b, 0, 2, MPI.DOUBLE, MPI.SUM).Wait()   # the control
    MPI.Finalize()


@pytest.mark.parametrize("transport", ["inproc", "socket"])
def test_blocking_collectives_build_no_collective_request(transport,
                                                          monkeypatch):
    """Only an ``I*`` call starts the event-driven engine; a blocking
    collective (``Finalize``'s barrier included) runs ``nbc.run``."""
    from repro.runtime.nbc import progress
    built = []
    init = progress.CollRequestImpl.__init__

    def counting(self, comm, schedule, name="coll"):
        built.append(name)
        init(self, comm, schedule, name)

    monkeypatch.setattr(progress.CollRequestImpl, "__init__", counting)
    with MPIExecutor(3, transport=transport) as ex:
        ex.run(_every_blocking_collective, timeout=60.0)
    assert built == ["Allreduce"] * 3


def _posted_window(in_step: threading.Barrier):
    MPI.Init([])
    world = MPI.COMM_WORLD
    rank = world.Rank()
    from repro.runtime.engine import current_runtime
    universe = current_runtime().universe
    bufs = [np.zeros(8, dtype=np.int8) for _ in range(WINDOW)]
    reqs = [world.Irecv(b, 0, 8, MPI.BYTE, 1 - rank, 5) for b in bufs]
    # not an MPI barrier: a collective schedule does subscribe
    in_step.wait(30)         # every rank's window is posted, none sent to
    listeners = len(universe._failure_listeners)
    posted = universe.mailboxes[rank].pending_counts()[1]
    in_step.wait(30)
    for b in bufs:
        world.Send(b, 0, 8, MPI.BYTE, 1 - rank, 5)
    Request.Waitall(reqs)
    MPI.Finalize()
    return listeners, posted


@pytest.mark.parametrize("transport", ["inproc", "socket"])
def test_posted_receives_subscribe_to_nothing(transport):
    with MPIExecutor(2, transport=transport) as ex:
        for listeners, posted in ex.run(
                _posted_window, args=(threading.Barrier(2),), timeout=60.0):
            assert posted == WINDOW
            assert listeners == 0


def test_completed_request_never_builds_a_waiter(waiters_built):
    both_counted = threading.Barrier(2)

    def body():
        MPI.Init([])
        world = MPI.COMM_WORLD
        rank = world.Rank()
        buf = np.zeros(8, dtype=np.int8)
        if rank == 0:
            world.Send(buf, 0, 8, MPI.BYTE, 1, 1)      # eager: done at once
            req = world.Isend(buf, 0, 8, MPI.BYTE, 1, 1)
            req.Wait()
        else:
            world.Probe(0, 1)                # both messages are here ...
            world.Recv(buf, 0, 8, MPI.BYTE, 0, 1)
            while world.Iprobe(0, 1) is None:
                pass
            world.Irecv(buf, 0, 8, MPI.BYTE, 0, 1).Wait()   # ... matched
        n = len(waiters_built)
        both_counted.wait(30)     # Finalize's barrier sleeps, legitimately
        MPI.Finalize()
        return n

    with MPIExecutor(2, transport="socket") as ex:
        assert ex.run(body, timeout=60.0) == [0, 0]


def test_a_window_already_in_the_kernel_takes_few_stream_reads():
    """The pump drains: 64 eager 1 KiB frames written while it was busy
    are cut out of a handful of reads of the stream (one per 64 KiB read
    buffer), not two reads per frame (header, then body)."""
    import queue
    import socket
    from repro.runtime.envelope import Envelope
    from repro.transport import wire
    a, b = socket.socketpair()
    tx_end, rx_end = wire.Channel(a, 0, 1), wire.Channel(b, 1, 0)
    tx = wire.WireTransport(2, (0,), [tx_end])
    rx = wire.WireTransport(2, (1,), [rx_end])
    busy, got = threading.Event(), queue.SimpleQueue()

    def deliver(env):
        if env.tag == 0:
            busy.wait(30)       # the pump is held here ...
        got.put(env.tag)

    reads = []
    recv_into = rx_end.recv_into

    def counted(view):
        reads.append(recv_into(view))
        return reads[-1]

    rx_end.recv_into = counted
    tx.set_deliver(0, lambda env: None)
    rx.set_deliver(1, deliver)
    tx.start()
    rx.start()
    try:
        def send(tag, n):
            tx.send(Envelope(src=0, dst=1, tag=tag, seq=tag + 1,
                             payload=np.zeros(n, dtype=np.int8), nelems=n))

        send(0, 8)
        deadline = time.monotonic() + 10
        while not reads and time.monotonic() < deadline:
            time.sleep(0.001)
        for tag in range(1, WINDOW + 1):
            send(tag, 1024)     # ... while the whole window is written
        held = len(reads)
        busy.set()
        assert [got.get(timeout=10) for _ in range(WINDOW + 1)] \
            == list(range(WINDOW + 1))
        assert len(reads) - held <= 4, reads
    finally:
        busy.set()
        tx.close()
        rx.close()
