"""Path-length budget: Python-level calls per steady-state eager message.

Small messages are bound by interpreter path length, not bytes (ROADMAP
item 1), so the budget is counted, not timed: ``sys.setprofile`` ``call``
events (Python functions entered; C calls are not events of that kind)
on threads-DM, per blocking ``Send``/``Recv`` in the rank thread, per
frame in the pump thread, and per message of an ``Isend``/``Irecv``/
``Waitall`` window of 64.  The counts are deterministic up to which side
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
from collections import Counter

import numpy as np
import pytest

from repro.executor.runner import MPIExecutor
from repro.mpijava import MPI, Request

#: counts measured when the budget was last re-anchored (PR 17, with the
#: post-time window check in place; its parent measured 100 / 39 / 47 /
#: 58 without one, PR 15's parent 127 / 51 / 57 / 74, same file)
BUDGET = {
    "send_recv_pair": 97,       # rank thread, one Send + one Recv
    "pump_frame": 25,           # pump thread, one eager frame
    "irecv_window_msg": 47,     # rank thread, per message: Irecv ... Waitall
    "isend_window_msg": 55,     # rank thread, per message: Isend ... Waitall
}
#: rank thread, one blocking collective on 4 ranks (PR 24: the rounds run
#: in the caller.  Its parent ran round 0 there and the rest in the pump:
#: 102 / 128 / 163 in the rank thread beside ~180 / ~210 / ~540 in its
#: pump, where the whole path is now this count plus 25 per frame)
COLL_BUDGET = {
    "barrier": 144,             # 2 rounds of dissemination
    "allreduce_8B": 178,        # 2 rounds of recursive doubling, in place
    "allreduce_256KiB": 205,    # reduce + bcast; the tree's inner ranks
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
    MPI.Finalize()
    return statistics.median(per_iter), statistics.median(pump)


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
    (pair0, pump0), (pair1, pump1) = _counted(_pingpong)
    _check("send_recv_pair", max(pair0, pair1))
    _check("pump_frame", max(pump0, pump1))


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


def _allreduce_frames(in_step: threading.Barrier, algorithm: str):
    from repro.runtime.collective import algorithm_overrides
    from repro.runtime.engine import current_runtime
    MPI.Init([])
    world = MPI.COMM_WORLD
    stats = current_runtime().universe.transport.wire_stats
    big_in, big_out = np.ones(LARGE), np.zeros(LARGE)
    deltas = []
    with algorithm_overrides(allreduce=algorithm):
        for _ in range(4):
            in_step.wait(30)    # rank-threads share the counters
            before = stats.snapshot()
            in_step.wait(30)
            world.Allreduce(big_in, 0, big_out, 0, LARGE, MPI.DOUBLE,
                            MPI.SUM)
            in_step.wait(30)
            after = stats.snapshot()
            deltas.append((after["tx_frames"] - before["tx_frames"],
                           after["eager_direct_frames"]
                           - before["eager_direct_frames"]))
    in_step.wait(30)
    exact = bool((big_out == world.Size()).all())
    MPI.Finalize()
    return exact, deltas


@pytest.mark.parametrize("nprocs", [3, 4])
@pytest.mark.parametrize("algorithm, per_job", [
    ("reduce_bcast", lambda p: 2 * (p - 1)),    # what 256 KiB selects
    ("ring", lambda p: p * 2 * (p - 1)),
])
def test_large_allreduce_frames_on_the_wire(nprocs, algorithm, per_job):
    """A blocking 256 KiB ``Allreduce`` on ``socket`` sends exactly its
    schedule's messages — ``p - 1`` up the tree and ``p - 1`` down it,
    ``2(p - 1)`` per rank round the ring: no control frame, no second
    frame for a payload — and a contribution that finds its receive
    posted streams off the socket into the array the ``Recv`` named."""
    from repro.runtime.collective.common import algorithm_for
    assert algorithm_for("allreduce", LARGE * 8) == "reduce_bcast"
    with MPIExecutor(nprocs, transport="socket") as ex:
        per_rank = ex.run(_allreduce_frames,
                          args=(threading.Barrier(nprocs), algorithm),
                          timeout=60.0)
    assert all(exact for exact, _ in per_rank)
    deltas = per_rank[0][1]
    assert [tx for tx, _ in deltas] == [per_job(nprocs)] * len(deltas)
    assert sum(direct for _, direct in deltas) > 0, deltas


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
