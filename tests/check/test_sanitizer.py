"""Negative + quietness tests for the runtime sanitizer
(``REPRO_SANITIZE=1``): each check fires with the right diagnostic, and
correct programs run clean.

The process-per-rank backend is exercised with module-level SPMD bodies
(they must be importable by the worker processes); the env var is
inherited by the workers automatically.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import mpirun, procrun
from repro.errors import MPIException, ERR_TYPE
from repro.executor.runner import RankFailure
from repro.mpijava import MPI

from tests.conftest import MODES, run


@pytest.fixture(autouse=True)
def _sanitize_env(monkeypatch):
    monkeypatch.setenv("REPRO_SANITIZE", "1")
    # fast probe ticks keep the deadlock tests snappy
    monkeypatch.setenv("REPRO_SANITIZE_PROBE_MS", "20")


def first_failure(excinfo) -> BaseException:
    failures = excinfo.value.failures
    return failures[min(failures)]


# ---------------------------------------------------------------------------
# deadlock detection: named cycle, not a timeout
# ---------------------------------------------------------------------------

def recv_recv_deadlock_body():
    MPI.Init([])
    me = MPI.COMM_WORLD.Rank()
    buf = np.zeros(4, dtype=np.int32)
    MPI.COMM_WORLD.Recv(buf, 0, 4, MPI.INT, 1 - me, 7)
    MPI.Finalize()


@pytest.mark.parametrize("mode", sorted(MODES))
def test_recv_recv_cycle_detected_threads(mode):
    with pytest.raises(RankFailure) as ei:
        # not spmd-wrapped: the body Init/Finalizes itself
        mpirun(2, recv_recv_deadlock_body, transport=MODES[mode],
               timeout=30.0)
    exc = first_failure(ei)
    assert isinstance(exc, MPIException)
    msg = str(exc)
    assert "deadlock detected" in msg
    assert "cycle rank 0 -> rank 1 -> rank 0" in msg \
        or "cycle rank 1 -> rank 0 -> rank 1" in msg
    assert "blocked in Recv" in msg
    assert "pending at rank" in msg


def test_recv_recv_cycle_detected_procs():
    with pytest.raises(RankFailure) as ei:
        procrun(2, recv_recv_deadlock_body, timeout=60.0)
    msg = str(first_failure(ei))
    assert "deadlock detected" in msg
    assert "-> rank" in msg and "blocked in Recv" in msg


def ssend_cycle_body():
    MPI.Init([])
    me = MPI.COMM_WORLD.Rank()
    buf = np.zeros(4, dtype=np.int32)
    MPI.COMM_WORLD.Ssend(buf, 0, 4, MPI.INT, 1 - me, 2)
    MPI.Finalize()


def test_ssend_ssend_cycle_detected():
    with pytest.raises(RankFailure) as ei:
        mpirun(2, ssend_cycle_body, transport="inproc", timeout=30.0)
    msg = str(first_failure(ei))
    assert "deadlock detected" in msg and "Ssend" in msg


def test_matched_traffic_is_not_flagged(mode_transport):
    """Recv with the matching send in flight must never trip detection."""
    def body():
        me = MPI.COMM_WORLD.Rank()
        buf = np.zeros(256, dtype=np.int64)
        other = 1 - me
        for i in range(20):
            if me == 0:
                buf[:] = i
                MPI.COMM_WORLD.Send(buf, 0, 256, MPI.LONG, other, i)
                MPI.COMM_WORLD.Recv(buf, 0, 256, MPI.LONG, other, i)
            else:
                MPI.COMM_WORLD.Recv(buf, 0, 256, MPI.LONG, other, i)
                assert buf[0] == i
                MPI.COMM_WORLD.Send(buf, 0, 256, MPI.LONG, other, i)
    run(2, body, transport=mode_transport, timeout=60.0)


# ---------------------------------------------------------------------------
# send-buffer mutation before completion
# ---------------------------------------------------------------------------

def mutate_in_flight_body():
    MPI.Init([])
    me = MPI.COMM_WORLD.Rank()
    buf = np.arange(64, dtype=np.int64)
    if me == 0:
        req = MPI.COMM_WORLD.Isend(buf, 0, 64, MPI.LONG, 1, 3)
        buf[5] = -999       # illegal: MPI owns the buffer until Wait
        req.Wait()
    else:
        r = np.zeros(64, dtype=np.int64)
        MPI.COMM_WORLD.Recv(r, 0, 64, MPI.LONG, 0, 3)
    MPI.Finalize()


@pytest.mark.parametrize("mode", sorted(MODES))
def test_buffer_mutation_detected_threads(mode):
    with pytest.raises(RankFailure) as ei:
        mpirun(2, mutate_in_flight_body, transport=MODES[mode],
               timeout=30.0)
    exc = first_failure(ei)
    msg = str(exc)
    assert "send buffer mutated before completion" in msg
    assert "checksum" in msg


def test_buffer_mutation_detected_procs():
    with pytest.raises(RankFailure) as ei:
        procrun(2, mutate_in_flight_body, timeout=60.0)
    assert "send buffer mutated before completion" \
        in str(first_failure(ei))


def test_untouched_isend_buffer_is_fine(mode_transport):
    def body():
        me = MPI.COMM_WORLD.Rank()
        buf = np.arange(64, dtype=np.int64)
        if me == 0:
            req = MPI.COMM_WORLD.Isend(buf, 0, 64, MPI.LONG, 1, 3)
            req.Wait()
            buf[5] = -999    # legal: completion already observed
        else:
            r = np.zeros(64, dtype=np.int64)
            MPI.COMM_WORLD.Recv(r, 0, 64, MPI.LONG, 0, 3)
            assert r[5] == 5
    run(2, body, transport=mode_transport, timeout=30.0)


# ---------------------------------------------------------------------------
# collective call-order / root / dtype consistency
# ---------------------------------------------------------------------------

def test_collective_root_mismatch_detected():
    def body():
        me = MPI.COMM_WORLD.Rank()
        buf = np.zeros(4, dtype=np.int32)
        MPI.COMM_WORLD.Bcast(buf, 0, 4, MPI.INT, 0 if me == 0 else 1)

    with pytest.raises(RankFailure) as ei:
        run(2, body, timeout=30.0)
    msg = str(first_failure(ei))
    assert "collective mismatch" in msg
    assert "root=0" in msg and "root=1" in msg


def test_collective_order_mismatch_detected():
    def body():
        me = MPI.COMM_WORLD.Rank()
        buf = np.zeros(4, dtype=np.int32)
        out = np.zeros(4, dtype=np.int32)
        if me == 0:
            MPI.COMM_WORLD.Bcast(buf, 0, 4, MPI.INT, 0)
        else:
            MPI.COMM_WORLD.Allreduce(buf, 0, out, 0, 4, MPI.INT, MPI.SUM)

    with pytest.raises(RankFailure) as ei:
        run(2, body, timeout=30.0)
    msg = str(first_failure(ei))
    assert "collective mismatch" in msg
    assert "Bcast" in msg and "Allreduce" in msg


def test_matching_collectives_pass(mode_transport):
    def body():
        me = MPI.COMM_WORLD.Rank()
        buf = np.full(8, me, dtype=np.int64)
        out = np.zeros(8, dtype=np.int64)
        MPI.COMM_WORLD.Bcast(buf, 0, 8, MPI.LONG, 0)
        MPI.COMM_WORLD.Allreduce(buf, 0, out, 0, 8, MPI.LONG, MPI.SUM)
        MPI.COMM_WORLD.Barrier()
    run(3, body, transport=mode_transport, timeout=30.0)


# ---------------------------------------------------------------------------
# datatype signature check on landing
# ---------------------------------------------------------------------------

def test_recv_type_mismatch_raises_err_type():
    def body():
        me = MPI.COMM_WORLD.Rank()
        if me == 0:
            s = np.arange(8, dtype=np.float64)
            MPI.COMM_WORLD.Send(s, 0, 8, MPI.DOUBLE, 1, 5)
        else:
            r = np.zeros(8, dtype=np.int32)
            MPI.COMM_WORLD.Recv(r, 0, 8, MPI.INT, 0, 5)

    with pytest.raises(RankFailure) as ei:
        run(2, body, timeout=30.0)
    exc = first_failure(ei)
    assert isinstance(exc, MPIException)
    assert exc.error_code == ERR_TYPE
    msg = str(exc)
    assert "sanitizer: datatype signature mismatch" in msg
    assert "float64" in msg and "MPI.INT" in msg


# ---------------------------------------------------------------------------
# Finalize audit
# ---------------------------------------------------------------------------

def test_finalize_audit_reports_unmatched_recv(capfd):
    def body():
        me = MPI.COMM_WORLD.Rank()
        if me == 0:
            buf = np.zeros(4, dtype=np.int32)
            MPI.COMM_WORLD.Irecv(buf, 0, 4, MPI.INT, 1, 9)  # never sent

    run(2, body, timeout=30.0)
    err = capfd.readouterr().err
    assert "sanitizer: Finalize audit, rank 0" in err
    assert "posted receive(s) never matched" in err
    assert "request(s) never completed" in err


def test_finalize_audit_strict_raises(monkeypatch):
    monkeypatch.setenv("REPRO_SANITIZE_STRICT", "1")

    def body():
        me = MPI.COMM_WORLD.Rank()
        if me == 1:
            buf = np.zeros(4, dtype=np.int32)
            MPI.COMM_WORLD.Irecv(buf, 0, 4, MPI.INT, 0, 9)

    with pytest.raises(RankFailure) as ei:
        run(2, body, timeout=30.0)
    assert "Finalize audit" in str(first_failure(ei))


def test_finalize_audit_quiet_on_clean_program(capfd):
    def body():
        me = MPI.COMM_WORLD.Rank()
        buf = np.full(4, me, dtype=np.int32)
        out = np.zeros(4, dtype=np.int32)
        MPI.COMM_WORLD.Allreduce(buf, 0, out, 0, 4, MPI.INT, MPI.SUM)
    run(2, body, timeout=30.0)
    assert "Finalize audit" not in capfd.readouterr().err


# ---------------------------------------------------------------------------
# plumbing
# ---------------------------------------------------------------------------

def test_sanitizer_installed_and_uninstalled(monkeypatch):
    from repro.mpijava import profiler
    from repro.runtime.engine import Universe
    before = list(profiler._active)
    u = Universe(2, "inproc")
    assert u.sanitizer is not None
    assert len(profiler._active) == len(before) + 1
    u.close()
    assert profiler._active == before


def test_sanitizer_absent_when_env_unset(monkeypatch):
    monkeypatch.delenv("REPRO_SANITIZE")
    from repro.runtime.engine import Universe
    u = Universe(2, "inproc")
    assert u.sanitizer is None
    u.close()


def _blocked_recv(universe, source=1):
    """A pending receive carrying the wait-for edge ``irecv`` would post."""
    from repro.runtime.requests import RequestImpl
    req = RequestImpl(universe, RequestImpl.KIND_RECV)
    req.sanitize_block = (0, source, 0, 7, "Recv")
    return req


def test_timed_probe_wait_ticks_on_the_shared_waiter():
    """The probing sleep is the request waiter parked with a timeout: a
    wait longer than the probe interval ticks the protocol, a completion
    ends it at once, and a wait-for-any posts no edge at all."""
    import threading
    import time
    from repro.runtime.engine import Universe
    from repro.runtime.requests import wait_all, wait_any
    u = Universe(2, "inproc")
    try:
        san = u.sanitizer
        ticks = []
        san._tick = lambda bw, oob=False: ticks.append(bw.waiting_on)
        req = _blocked_recv(u)
        threading.Timer(5 * san.probe_interval, req.complete).start()
        t0 = time.monotonic()
        req.wait()
        assert 1 <= len(ticks) <= 8 and set(ticks) == {1}, ticks
        assert time.monotonic() - t0 < 5 * san.probe_interval + 0.5
        assert san._blocked == {}

        # Waitall: the edges of the pending requests, one at a time
        del ticks[:]
        first, second = _blocked_recv(u), _blocked_recv(u, source=0)
        second.sanitize_block = (0, 0, 0, 8, "Recv")
        threading.Timer(3 * san.probe_interval, first.complete).start()
        threading.Timer(6 * san.probe_interval, second.complete).start()
        wait_all([first, second], u)
        assert ticks and ticks[0] == 1 and ticks[-1] == 0, ticks
        assert san._blocked == {}

        # Waitany: either sender could end it — no edge, no probe
        del ticks[:]
        reqs = [_blocked_recv(u), _blocked_recv(u)]
        threading.Timer(3 * san.probe_interval, reqs[1].complete).start()
        assert wait_any(reqs, u) == 1
        assert ticks == []
    finally:
        u.close()


def test_waitall_racing_complete_through_the_probing_sleep():
    """The probing sleep of a Waitall loses no wakeup either: requests
    that complete before, while and after ``wait_all`` looks at them —
    the last one possibly between its look and its park."""
    import sys
    import threading
    from repro.runtime.engine import Universe
    from repro.runtime.requests import wait_all
    u = Universe(2, "inproc")
    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        gate = threading.Barrier(2)
        pairs = [(_blocked_recv(u), _blocked_recv(u)) for _ in range(4000)]

        def completer():
            for i, (a, b) in enumerate(pairs):
                gate.wait()
                for _ in range(i % 11):
                    pass
                b.complete()
                a.complete()

        def waiter():
            for i, (a, b) in enumerate(pairs):
                gate.wait()
                wait_all([a, b] if i & 1 else [a], u)

        threads = [threading.Thread(target=f, daemon=True)
                   for f in (completer, waiter)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(120)
            assert not t.is_alive(), "a Waitall never woke"
        assert u.sanitizer._blocked == {}
    finally:
        sys.setswitchinterval(old)
        u.close()


def waitall_deadlock_body():
    """Head-to-head receives behind a Waitall, beside an ANY_SOURCE
    receive nothing will ever match: the named cycle must surface from
    the Waitall without waiting for the companion."""
    from repro.mpijava import Request
    MPI.Init([])
    me = MPI.COMM_WORLD.Rank()
    a = np.zeros(4, dtype=np.int32)
    b = np.zeros(4, dtype=np.int32)
    Request.Waitall([
        MPI.COMM_WORLD.Irecv(a, 0, 4, MPI.INT, 1 - me, 7),
        MPI.COMM_WORLD.Irecv(b, 0, 4, MPI.INT, MPI.ANY_SOURCE, 8)])
    MPI.Finalize()


@pytest.mark.parametrize("mode", sorted(MODES))
def test_cycle_behind_waitall_detected(mode):
    with pytest.raises(RankFailure) as ei:
        mpirun(2, waitall_deadlock_body, transport=MODES[mode],
               timeout=30.0)
    msg = str(first_failure(ei))
    assert "deadlock detected" in msg and "blocked in Recv" in msg
