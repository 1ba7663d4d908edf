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
HEADROOM = 1.10
ITERS = 60
WINDOW = 64


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


def _counted(body):
    counter = CallCounter()
    threading.setprofile(counter)
    try:
        with MPIExecutor(2, transport="socket") as ex:
            return ex.run(body, args=(counter,), timeout=120.0)
    finally:
        threading.setprofile(None)


#: the sanitizer's checksums and edge bookkeeping are extra calls by design
unsanitized = pytest.mark.skipif(
    os.environ.get("REPRO_SANITIZE") == "1",
    reason="the budget is the production path's, not the sanitizer's")


def _check(name: str, measured: float) -> None:
    assert measured <= BUDGET[name] * HEADROOM, \
        (f"{name}: {measured} Python calls, budget {BUDGET[name]} "
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
