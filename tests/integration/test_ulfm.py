"""ULFM-style fault tolerance: detect, Revoke, Shrink, Agree, continue.

The acceptance demo of the robustness issue, as a test matrix over all
three backends: a rank is killed mid-collective by the deterministic
fault harness (``REPRO_FAULT``), survivors under ``ERRORS_RETURN`` see
``ERR_PROC_FAILED`` (or ``ERR_REVOKED`` — a faster survivor's Revoke can
legitimately land before this rank's own failure detection; both are
correct ULFM outcomes), Revoke the world, Shrink to a working (n-1)
communicator, complete an Allreduce on it, Agree, and Finalize.

The process backend additionally asserts the *detection* plane: the
launcher's exported counters must show the failure was noticed within
2x the heartbeat interval, and a SIGSTOP'd rank — whose sockets stay
open, so EOF never fires — must still be declared dead by heartbeat
silence.

SPMD bodies are module-level so the process backend can import them by
reference.
"""

import time

import numpy as np
import pytest

from repro import mpirun, procrun
from repro.errors import (ERR_PROC_FAILED, ERR_REVOKED, AbortException,
                          MPIException)
from repro.executor.runner import RankFailure
from repro.mpijava import MPI
from repro.obs.metrics import REGISTRY
from repro.util.faultinject import SimulatedRankDeath

NPROCS = 4
DEAD = 2
TIMEOUT = 60.0

#: acceptance bound: survivors in fatal mode must unwind well under this
FATAL_UNWIND_BOUND = 1.0


# --- module-level SPMD bodies -------------------------------------------------

def survivor_body():
    """Detect -> Revoke -> Shrink -> continue on the shrunken world."""
    MPI.Init([])
    w = MPI.COMM_WORLD
    w.Errhandler_set(MPI.ERRORS_RETURN)
    me = w.Rank()
    sb = np.array([1.0])
    rb = np.zeros(1)
    try:
        w.Allreduce(sb, 0, rb, 0, 1, MPI.DOUBLE, MPI.SUM)
        raise AssertionError(f"rank {me}: allreduce over a dead rank "
                             "should have failed")
    except MPIException as exc:
        assert exc.error_code in (ERR_PROC_FAILED, ERR_REVOKED), repr(exc)
    w.Revoke()
    assert w.Is_revoked()
    # anything else on the revoked communicator fails deterministically
    try:
        w.Barrier()
        raise AssertionError("barrier on a revoked comm should fail")
    except MPIException as exc:
        assert exc.error_code in (ERR_REVOKED, ERR_PROC_FAILED), repr(exc)
    s = w.Shrink()
    assert s.Size() == NPROCS - 1, s.Size()
    assert not s.Is_revoked()
    s.Allreduce(sb, 0, rb, 0, 1, MPI.DOUBLE, MPI.SUM)
    assert rb[0] == float(NPROCS - 1), rb
    assert s.Agree(1) == 1
    assert s.Agree(0 if s.Rank() == 0 else 1) == 0  # bitwise AND
    MPI.Finalize()
    return f"survivor-{me}"


def fatal_mode_body():
    """Default handler: peer death must *abort* survivors, fast."""
    MPI.Init([])
    w = MPI.COMM_WORLD
    sb = np.array([1.0])
    rb = np.zeros(1)
    t0 = time.monotonic()
    try:
        w.Allreduce(sb, 0, rb, 0, 1, MPI.DOUBLE, MPI.SUM)
    except AbortException as exc:
        dt = time.monotonic() - t0
        assert exc.origin_rank == DEAD, exc.origin_rank
        raise RuntimeError("unwound %.3f" % dt)
    return "unreachable"


def revoke_scope_body():
    """Rank 0 revokes a Dup of its half of the world.  The other half's
    Dup may have the same context ids (on the process backend each rank
    allocates them itself), and it must stay usable."""
    MPI.Init([])
    w = MPI.COMM_WORLD
    rank = w.Rank()
    half = w.Split(rank // 2, rank)
    dup = half.Dup()
    dup.Errhandler_set(MPI.ERRORS_RETURN)
    if rank == 0:
        dup.Revoke()
    w.Barrier()
    w.Barrier()
    try:
        dup.Barrier()
        out = "ok"
    except MPIException as exc:
        out = type(exc).__name__
    MPI.Finalize()
    return out


def queued_receives_body():
    """DEAD dies while every survivor holds queued receives only it could
    have satisfied — exact, ``ANY_TAG``, ``ANY_SOURCE`` — beside one from
    a live neighbour: the failure plane finds them by walking the posted
    queues (none of them subscribed to anything)."""
    from repro.runtime.engine import current_runtime
    MPI.Init([])
    w = MPI.COMM_WORLD
    w.Errhandler_set(MPI.ERRORS_RETURN)
    me = w.Rank()
    token = np.zeros(1, dtype=np.int32)
    if me == DEAD:
        for r in range(NPROCS - 1):             # every window is posted
            w.Recv(token, 0, 1, MPI.INT, MPI.ANY_SOURCE, 1)
        MPI.Finalize()                          # the fault point
        return "unreachable"
    survivors = [r for r in range(NPROCS) if r != DEAD]
    i = survivors.index(me)
    nxt, prv = survivors[(i + 1) % 3], survivors[i - 1]
    bufs = [np.zeros(4, dtype=np.int32) for _ in range(4)]
    doomed = [w.Irecv(bufs[0], 0, 4, MPI.INT, DEAD, 5),
              w.Irecv(bufs[1], 0, 4, MPI.INT, DEAD, MPI.ANY_TAG),
              w.Irecv(bufs[2], 0, 4, MPI.INT, MPI.ANY_SOURCE, 7)]
    live = w.Irecv(bufs[3], 0, 4, MPI.INT, prv, 6)
    rt = current_runtime()
    assert rt.mailbox.pending_counts()[1] == 4
    assert len(rt.universe._failure_listeners) == 0
    w.Send(token, 0, 1, MPI.INT, DEAD, 1)
    for req in doomed:
        try:
            req.Wait()
            raise AssertionError(f"rank {me}: receive from a dead rank "
                                 "completed")
        except MPIException as exc:
            assert exc.error_code == ERR_PROC_FAILED, repr(exc)
            assert exc.failed_rank == DEAD, repr(exc)
    # the live peer's receive was in the same queue, and still works
    w.Send(np.full(4, me, dtype=np.int32), 0, 4, MPI.INT, nxt, 6)
    live.Wait()
    assert bufs[3].tolist() == [prv] * 4, bufs[3]
    # nothing left behind for the Finalize audit to call a leak
    assert rt.mailbox.pending_counts() == (0, 0), \
        rt.mailbox.pending_summary()
    MPI.Finalize()
    return f"survivor-{me}"


#: messages the dying peer completes before it goes
LAST_WORDS = 48


def last_words_body():
    """Rank 1 sends LAST_WORDS eager messages and dies (Finalize's fault
    point) before rank 0 posts a receive.  Rank 0 waits until its pump
    has seen the stream's EOF — only that sets the channel's ``dead``
    flag here; the launcher's notice goes to the failure plane — and by
    then every message the peer completed must be queued: frames ahead
    of an EOF are delivered before it."""
    from repro.runtime.engine import current_runtime
    MPI.Init([])
    w = MPI.COMM_WORLD
    w.Errhandler_set(MPI.ERRORS_RETURN)
    if w.Rank() == 1:
        for k in range(LAST_WORDS):
            w.Send(np.full(256, k, dtype=np.int32), 0, 256, MPI.INT, 0, 5)
        MPI.Finalize()                          # the fault point
        return "unreachable"
    rt = current_runtime()
    eof = rt.universe.transport._table[0, 1].dead
    assert eof.wait(30), "the pump never saw the peer's EOF"
    assert rt.mailbox.pending_counts() == (LAST_WORDS, 0)
    buf = np.zeros(256, dtype=np.int32)
    for k in range(LAST_WORDS):
        w.Recv(buf, 0, 256, MPI.INT, 1, 5)
        assert (buf == k).all(), (k, buf[:4])
    try:
        w.Recv(buf, 0, 256, MPI.INT, 1, 5)
        raise AssertionError("a receive from the dead peer completed")
    except MPIException as exc:
        assert exc.error_code == ERR_PROC_FAILED, repr(exc)
    MPI.Finalize()
    return "drained"


# --- survive-and-continue matrix ----------------------------------------------

class TestSurviveRankDeath:
    """The end-to-end acceptance demo on every backend."""

    @pytest.mark.parametrize("transport", ["inproc", "socket"])
    def test_thread_backends(self, transport, monkeypatch):
        monkeypatch.setenv("REPRO_FAULT", f"coll.round:{DEAD}")
        with pytest.raises(RankFailure) as ei:
            mpirun(NPROCS, survivor_body, transport=transport,
                   timeout=TIMEOUT)
        failures = ei.value.failures
        # only the injected death: every survivor finished Shrink+Agree
        assert set(failures) == {DEAD}, failures
        assert isinstance(failures[DEAD], SimulatedRankDeath), failures

    def test_process_backend(self, monkeypatch):
        monkeypatch.setenv("REPRO_FAULT", f"coll.round:{DEAD}")
        monkeypatch.setenv("REPRO_HEARTBEAT_MS", "100")
        with pytest.raises(RankFailure) as ei:
            procrun(NPROCS, survivor_body, timeout=TIMEOUT)
        failures = ei.value.failures
        assert set(failures) == {DEAD}, failures
        # a hard kill surfaces as the launcher's classified death, with
        # the exit code of the injected os._exit in the message
        assert isinstance(failures[DEAD], RuntimeError), failures
        assert "died" in str(failures[DEAD]) or \
            "heartbeat" in str(failures[DEAD]), failures

    def test_detection_latency_within_two_heartbeats(self, monkeypatch):
        """Acceptance: detection latency <= 2x REPRO_HEARTBEAT_MS, read
        back from the launcher's exported counters."""
        hb_s = 0.1
        monkeypatch.setenv("REPRO_FAULT", f"coll.round:{DEAD}")
        monkeypatch.setenv("REPRO_HEARTBEAT_MS", str(int(hb_s * 1000)))
        with pytest.raises(RankFailure):
            procrun(NPROCS, survivor_body, timeout=TIMEOUT)
        snap = REGISTRY.snapshot()
        assert snap["counters"]["proc.ft"]["failures_detected"] >= 1, \
            snap["counters"]
        latency = snap["gauges"]["proc.ft.detect_latency_s"]
        assert latency <= 2 * hb_s, \
            f"detection took {latency:.3f}s, bound {2 * hb_s:.3f}s"

    def test_sigstop_detected_by_heartbeat_silence(self, monkeypatch):
        """A wedged (SIGSTOP'd) rank keeps its sockets open — EOF never
        fires, only the heartbeat plane can declare it dead."""
        monkeypatch.setenv("REPRO_FAULT", f"coll.round:{DEAD}:1:stop")
        monkeypatch.setenv("REPRO_HEARTBEAT_MS", "50")
        monkeypatch.setenv("REPRO_HEARTBEAT_MISS", "4")
        t0 = time.monotonic()
        with pytest.raises(RankFailure) as ei:
            procrun(NPROCS, survivor_body, timeout=TIMEOUT)
        dt = time.monotonic() - t0
        failures = ei.value.failures
        assert set(failures) == {DEAD}, failures
        assert "heartbeat" in str(failures[DEAD]), failures
        # 4 missed 50ms beats ~ 200ms; whole job (spawn included) must
        # still finish promptly or the silence scan isn't working
        assert dt < 10.0, f"SIGSTOP detection took {dt:.1f}s"


class TestQueuedReceivesOfADeadPeer:
    """The failure walk, end to end, on every backend."""

    @pytest.mark.parametrize("transport", ["inproc", "socket"])
    def test_thread_backends(self, transport, monkeypatch):
        monkeypatch.setenv("REPRO_FAULT", f"finalize:{DEAD}")
        with pytest.raises(RankFailure) as ei:
            mpirun(NPROCS, queued_receives_body, transport=transport,
                   timeout=TIMEOUT)
        assert set(ei.value.failures) == {DEAD}, ei.value.failures

    def test_process_backend(self, monkeypatch):
        monkeypatch.setenv("REPRO_FAULT", f"finalize:{DEAD}")
        monkeypatch.setenv("REPRO_HEARTBEAT_MS", "100")
        with pytest.raises(RankFailure) as ei:
            procrun(NPROCS, queued_receives_body, timeout=TIMEOUT)
        assert set(ei.value.failures) == {DEAD}, ei.value.failures


class TestRevokeReachesMembersOnly:
    """A revoke token goes to the revoked communicator's members, not
    to every rank that happens to know the same context ids."""

    WANT = ["RevokedException", "RevokedException", "ok", "ok"]

    @pytest.mark.parametrize("transport", ["inproc", "socket"])
    def test_thread_backends(self, transport):
        assert mpirun(NPROCS, revoke_scope_body, transport=transport,
                      timeout=TIMEOUT) == self.WANT

    def test_process_backend(self):
        assert procrun(NPROCS, revoke_scope_body,
                       timeout=TIMEOUT) == self.WANT


class TestFramesAheadOfTheEof:
    def test_process_backend(self, monkeypatch):
        monkeypatch.setenv("REPRO_FAULT", "finalize:1")
        monkeypatch.setenv("REPRO_HEARTBEAT_MS", "100")
        with pytest.raises(RankFailure) as ei:
            procrun(2, last_words_body, timeout=TIMEOUT)
        assert set(ei.value.failures) == {1}, ei.value.failures


class TestASendThatFindsThePeerGone:
    """A write can meet a dead peer before the pump meets its EOF: the
    kernel refuses it (EPIPE).  That send fails with the peer's failure,
    not as an ``ERR_OTHER`` in user code — but only the pump declares the
    peer dead, once it has delivered every frame ahead of the EOF."""

    def test_fails_with_err_proc_failed(self):
        import socket
        from repro.datatypes import primitives as P
        from repro.runtime.engine import RankRuntime, Universe
        universe = Universe(2, "socket")
        try:
            comm = RankRuntime(universe, 0).comm_world
            # rank 1's end reads no more, and rank 0's pump sees no EOF
            universe.transport._table[1, 0].sock.shutdown(socket.SHUT_RD)
            with pytest.raises(MPIException) as ei:
                comm.send(np.zeros(8, dtype=np.int8), 0, 8, P.BYTE, 1, 3)
            assert ei.value.error_code == ERR_PROC_FAILED, repr(ei.value)
            assert ei.value.failed_rank == 1
            assert 1 not in universe.failed_ranks
        finally:
            universe.close()

    def test_receives_posted_before_it_still_get_their_data(self):
        """The peer sends N messages and dies; they are still unread when
        this rank posts N receives and then sends to the peer.  The send
        fails, and all N receives complete with their data."""
        import socket
        import threading
        from repro.datatypes import primitives as P
        from repro.runtime.engine import RankRuntime, Universe
        n = 16
        universe = Universe(2, "socket")
        transport = universe.transport
        gate = threading.Event()
        try:
            me = RankRuntime(universe, 0).comm_world
            peer = RankRuntime(universe, 1).comm_world
            deliver = transport._deliver[0]

            def held(env):          # rank 0's pump waits for the gate
                gate.wait(30)
                deliver(env)

            transport._deliver[0] = held
            for k in range(n):
                peer.send(np.full(4, k, dtype=np.int32), 0, 4, P.INT, 0, 5)
            # rank 1 dies: its end of the pair closes (its own pump, told
            # nothing, must not declare rank 0 dead in this shared job)
            transport._deliver[1] = None
            transport._table[1, 0].sock.shutdown(socket.SHUT_RDWR)
            bufs = [np.zeros(4, dtype=np.int32) for _ in range(n)]
            reqs = [me.irecv(b, 0, 4, P.INT, 1, 5) for b in bufs]
            with pytest.raises(MPIException) as ei:
                me.send(np.zeros(1, dtype=np.int32), 0, 1, P.INT, 1, 6)
            assert ei.value.error_code == ERR_PROC_FAILED, repr(ei.value)
            gate.set()
            for k, req in enumerate(reqs):
                req.wait()
                assert bufs[k].tolist() == [k] * 4, (k, bufs[k])
            # and the EOF behind them declares the peer dead
            deadline = time.monotonic() + 10
            while 1 not in universe.failed_ranks \
                    and time.monotonic() < deadline:
                time.sleep(0.01)
            assert 1 in universe.failed_ranks
        finally:
            gate.set()
            universe.close()


class TestParkedSendsStillSubscribe:
    """What parks outside a posted queue listens for itself: a send that
    waits on its peer (rendezvous CTS, synchronous ACK) arms after it
    went out, an eager send never does."""

    @pytest.mark.parametrize("event", ["death", "revoke"])
    @pytest.mark.parametrize("kind", ["rendezvous", "ssend"])
    def test_parked_send_fails(self, kind, event):
        from repro.datatypes import primitives as P
        from repro.runtime.engine import RankRuntime, Universe
        from repro.runtime.envelope import MODE_SYNCHRONOUS
        universe = Universe(2, "socket")
        try:
            comm = RankRuntime(universe, 0).comm_world
            small = np.zeros(8, dtype=np.int8)
            comm.isend(small, 0, 8, P.BYTE, 1, 3).wait()     # eager
            assert len(universe._failure_listeners) == 0
            if kind == "rendezvous":
                big = np.zeros(1 << 20, dtype=np.int8)
                req = comm.isend(big, 0, big.size, P.BYTE, 1, 4)
            else:
                req = comm.isend(small, 0, 8, P.BYTE, 1, 4,
                                 MODE_SYNCHRONOUS)
            assert not req.done
            assert len(universe._failure_listeners) == 1
            if event == "death":
                universe.note_peer_failure(1, ConnectionError("gone"))
                want = ERR_PROC_FAILED
            else:
                universe.note_revoked((comm.ctx_pt2pt,), (), origin_rank=1)
                want = ERR_REVOKED
            assert req.done and req.error == want
            assert len(universe._failure_listeners) == 0
            with pytest.raises(MPIException):
                req.wait()
        finally:
            universe.close()


class TestFatalModeUnwind:
    """ERRORS_ARE_FATAL (the default): peer death aborts, in under 1s."""

    @pytest.mark.parametrize("transport", ["inproc", "socket"])
    def test_thread_backends(self, transport, monkeypatch):
        monkeypatch.setenv("REPRO_FAULT", f"coll.round:{DEAD}")
        with pytest.raises(RankFailure) as ei:
            mpirun(NPROCS, fatal_mode_body, transport=transport,
                   timeout=TIMEOUT)
        self._check_unwind(ei.value.failures)

    def test_process_backend(self, monkeypatch):
        monkeypatch.setenv("REPRO_FAULT", f"coll.round:{DEAD}")
        monkeypatch.setenv("REPRO_HEARTBEAT_MS", "100")
        with pytest.raises(RankFailure) as ei:
            procrun(NPROCS, fatal_mode_body, timeout=TIMEOUT)
        self._check_unwind(ei.value.failures)

    @staticmethod
    def _check_unwind(failures):
        victims = {r: f for r, f in failures.items()
                   if isinstance(f, RuntimeError) and "unwound" in str(f)}
        assert victims, f"no timed victims in {failures!r}"
        for rank, failure in victims.items():
            dt = float(str(failure).split()[-1])
            assert dt < FATAL_UNWIND_BOUND, \
                f"rank {rank} took {dt:.3f}s to unwind after peer death"


# --- fault-spec hygiene -------------------------------------------------------

class TestFaultSpec:
    def test_bad_spec_rejected(self, monkeypatch):
        from repro.util import faultinject
        monkeypatch.setenv("REPRO_FAULT", "no-such-site:0")
        with pytest.raises(ValueError, match="site"):
            faultinject.maybe_fail("coll.round", 0)

    def test_spec_list_arms_every_entry(self, monkeypatch):
        """A comma-separated list arms all of its specs at once: a soft
        site degrades one rank while a kill site waits for another."""
        from repro.util import faultinject
        monkeypatch.setenv("REPRO_FAULT",
                           "cma.probe:1::deny,coll.round:2:2,cma.probe:3")
        faultinject.reset()
        assert faultinject.denied("cma.probe", 1)
        assert faultinject.denied("cma.probe", 3)    # deny is the default
        assert not faultinject.denied("cma.probe", 2)
        faultinject.maybe_fail("coll.round", 2)      # hit 1 of 2: survives
        with pytest.raises(SimulatedRankDeath):
            faultinject.maybe_fail("coll.round", 2)
        faultinject.maybe_fail("cma.probe", 1)       # soft: never kills

    @pytest.mark.parametrize("spec", ["cma.probe:1::kill",
                                      "coll.round:1::deny",
                                      "coll.round:1,bogus:0"])
    def test_action_must_fit_the_site(self, spec, monkeypatch):
        from repro.util import faultinject
        monkeypatch.setenv("REPRO_FAULT", spec)
        with pytest.raises(ValueError, match="REPRO_FAULT"):
            faultinject.denied("cma.probe", 1)

    def test_hit_counts_reset_between_jobs(self, monkeypatch):
        """The same executor must be able to run the fault twice."""
        monkeypatch.setenv("REPRO_FAULT", f"coll.round:{DEAD}")
        for _ in range(2):
            with pytest.raises(RankFailure) as ei:
                mpirun(NPROCS, survivor_body, timeout=TIMEOUT)
            assert set(ei.value.failures) == {DEAD}
