"""Job-wide fault containment under injected rank failures.

One rank raising a *non-MPI* exception — inside a user reduction op,
between collectives, or under an i-collective wait — must unblock every
peer promptly:

* under ``ERRORS_ARE_FATAL`` the failure poisons the job directly;
* under ``ERRORS_RETURN`` it surfaces to the raising rank as an
  ``MPIException`` with the original preserved as ``__cause__``; the
  rank's thread then dies and the executor poisons the job.

Either way peers unwind with ``AbortException`` in milliseconds — the
wall-clock bounds here are far below both the old 50 ms abort-poll tick
granularity and the executor timeout, proving the wakeups are
event-driven.

The process-backend classes at the bottom drive the deterministic
``REPRO_FAULT`` harness instead of raising from user code: the named
rank is *hard-killed* (``os._exit``, no report, no finally blocks) at a
protocol edge — mid-bootstrap, mid-rendezvous handshake, between
collective schedule rounds, inside Finalize — and the launcher plus
survivors must converge on the right verdict fast.
"""

import time

import numpy as np
import pytest

from repro import mpirun, procrun
from repro.errors import AbortException, MPIException, ProcFailedException
from repro.executor.runner import RankFailure
from repro.mpijava import MPI
from repro.mpijava.op import Op

#: generous CI bound; every peer must unwind well inside this (the old
#: behaviour was the 120 s executor timeout)
PROMPT = 1.0

#: executor timeout for all jobs here — failing tests report fast, and a
#: pass proves no dependence on it
TIMEOUT = 30.0


def failing_op():
    """A user reduction op that always raises a non-MPI exception."""

    def ufn(invec, inoutvec, count, datatype):
        raise ValueError("injected user-op failure")

    return Op.Create(ufn, commute=True)


def run_expect_failure(nprocs, body, args=()):
    """Run the job, asserting it fails promptly; returns (failures, dt)."""
    t0 = time.monotonic()
    with pytest.raises(RankFailure) as ei:
        mpirun(nprocs, body, args=args, timeout=TIMEOUT)
    dt = time.monotonic() - t0
    assert dt < PROMPT, (f"peers took {dt:.2f}s to unwind; fault "
                         f"containment is not event-driven")
    return ei.value.failures, dt


class TestUserOpFailureInBlockingCollective:
    def test_errors_are_fatal_poisons_job(self):
        def body():
            MPI.Init([])
            w = MPI.COMM_WORLD
            op = failing_op()
            sb = np.array([float(w.Rank())])
            rb = np.zeros(1)
            # default handler is ERRORS_ARE_FATAL
            w.Allreduce(sb, 0, rb, 0, 1, MPI.DOUBLE, op)
            return "unreachable"

        failures, _ = run_expect_failure(4, body)
        # every failure folds back to the rank(s) whose op raised, and the
        # root cause is the injected ValueError
        assert failures
        assert any(isinstance(f, ValueError)
                   or isinstance(f.__cause__, ValueError)
                   for f in failures.values())

    def test_errors_return_preserves_cause_on_raising_rank(self):
        def body():
            MPI.Init([])
            w = MPI.COMM_WORLD
            w.Errhandler_set(MPI.ERRORS_RETURN)
            op = failing_op()
            sb = np.array([float(w.Rank())])
            rb = np.zeros(1)
            w.Allreduce(sb, 0, rb, 0, 1, MPI.DOUBLE, op)
            return "unreachable"

        failures, _ = run_expect_failure(4, body)
        wrapped = [f for f in failures.values()
                   if isinstance(f, MPIException)
                   and not isinstance(f, AbortException)]
        assert wrapped, f"no wrapped MPIException in {failures!r}"
        for exc in wrapped:
            assert exc.error_code == MPI.ERR_OTHER
            assert isinstance(exc.__cause__, ValueError)

    def test_errors_return_reduce_to_root(self):
        def body():
            MPI.Init([])
            w = MPI.COMM_WORLD
            w.Errhandler_set(MPI.ERRORS_RETURN)
            op = failing_op()
            sb = np.array([float(w.Rank())])
            rb = np.zeros(1)
            w.Reduce(sb, 0, rb, 0, 1, MPI.DOUBLE, op, 0)
            return "unreachable"

        failures, _ = run_expect_failure(4, body)
        assert any(isinstance(f, MPIException)
                   and isinstance(f.__cause__, ValueError)
                   for f in failures.values())


class TestFailureBetweenCollectives:
    @pytest.mark.parametrize("handler", ["fatal", "return"])
    def test_rank_death_in_main_unblocks_collective_peers(self, handler):
        def body(which):
            MPI.Init([])
            w = MPI.COMM_WORLD
            if which == "return":
                w.Errhandler_set(MPI.ERRORS_RETURN)
            sb = np.array([1.0])
            rb = np.zeros(1)
            w.Allreduce(sb, 0, rb, 0, 1, MPI.DOUBLE, MPI.SUM)
            if w.Rank() == 1:
                # dies between collectives: no MPI call sees this, only
                # the executor's rank-thread-death poisoning can save
                # the peers blocked in the barrier below
                raise ValueError("injected failure between collectives")
            w.Barrier()
            return "unreachable"

        failures, _ = run_expect_failure(4, body, args=(handler,))
        # folded back to the origin: only rank 1, with the original error
        assert set(failures) == {1}
        assert isinstance(failures[1], ValueError)

    def test_victims_fold_to_origin_even_if_origin_thread_exited(self):
        def body():
            MPI.Init([])
            w = MPI.COMM_WORLD
            if w.Rank() == 0:
                # poison the job but swallow the abort and exit cleanly:
                # the victims' reports must still name rank 0
                try:
                    w.Abort(23)
                except AbortException:
                    pass
                return "origin exited"
            w.Barrier()
            return "unreachable"

        t0 = time.monotonic()
        with pytest.raises(RankFailure) as ei:
            mpirun(3, body, timeout=TIMEOUT)
        assert time.monotonic() - t0 < PROMPT
        failures = ei.value.failures
        assert set(failures) == {0}
        assert isinstance(failures[0], AbortException)
        assert failures[0].abort_code == 23


class TestFailureUnderICollectiveWait:
    @pytest.mark.parametrize("handler", ["fatal", "return"])
    def test_user_op_failure_in_iallreduce_wait(self, handler):
        def body(which):
            MPI.Init([])
            w = MPI.COMM_WORLD
            if which == "return":
                w.Errhandler_set(MPI.ERRORS_RETURN)
            op = failing_op()
            sb = np.array([float(w.Rank())])
            rb = np.zeros(1)
            req = w.Iallreduce(sb, 0, rb, 0, 1, MPI.DOUBLE, op)
            req.Wait()
            return "unreachable"

        failures, _ = run_expect_failure(4, body, args=(handler,))
        assert failures
        roots = [f.__cause__ if isinstance(f, MPIException) else f
                 for f in failures.values()]
        assert any(isinstance(r, ValueError) for r in roots)
        if handler == "return":
            wrapped = [f for f in failures.values()
                       if isinstance(f, MPIException)
                       and not isinstance(f, AbortException)]
            assert wrapped
            for exc in wrapped:
                assert isinstance(exc.__cause__, ValueError)

    def test_peer_blocked_in_wait_unwinds_on_rank_death(self):
        def body():
            MPI.Init([])
            w = MPI.COMM_WORLD
            sb = np.array([float(w.Rank())])
            rb = np.zeros(1)
            if w.Rank() == 2:
                raise ValueError("dies before joining the collective")
            req = w.Iallreduce(sb, 0, rb, 0, 1, MPI.DOUBLE, MPI.SUM)
            req.Wait()
            return "unreachable"

        failures, _ = run_expect_failure(4, body)
        assert set(failures) == {2}
        assert isinstance(failures[2], ValueError)


class TestPointToPointAndProbeUnblock:
    def test_blocked_recv_unwinds_promptly(self):
        def body():
            MPI.Init([])
            w = MPI.COMM_WORLD
            if w.Rank() == 0:
                raise ValueError("sender died")
            buf = np.zeros(1, dtype=np.int32)
            w.Recv(buf, 0, 1, MPI.INT, 0, 0)
            return "unreachable"

        failures, _ = run_expect_failure(2, body)
        assert set(failures) == {0}

    def test_blocked_probe_unwinds_promptly(self):
        def body():
            MPI.Init([])
            w = MPI.COMM_WORLD
            if w.Rank() == 0:
                raise ValueError("peer died before sending")
            w.Probe(0, 7)
            return "unreachable"

        failures, _ = run_expect_failure(2, body)
        assert set(failures) == {0}
        assert isinstance(failures[0], ValueError)


# --- a failed single-copy get is a peer loss, never a raw OSError --------------

class TestFailedGetIsAPeerLoss:
    """Hazard: on a pair that reads rendezvous payloads in place, a
    sender that dies after its RTS leaves the receiver a cookie into
    memory that is gone.  The read's ``ESRCH`` / ``EFAULT`` must reach
    the failure plane the way the socket's EOF does and complete the
    matched receive with ``ERR_PROC_FAILED`` — whichever thread ran the
    match.  In-process, with the read itself failing on cue (the
    process-backend class below kills a real sender)."""

    N = 1 << 17     # 1 MiB of doubles: at the default eager limit

    @pytest.mark.parametrize("err", ["ESRCH", "EFAULT"])
    @pytest.mark.parametrize("order", ["posted", "unexpected"])
    def test_recv_raises_proc_failed(self, order, err, cma_capable,
                                     monkeypatch):
        import errno
        import os
        import threading

        from repro.executor.runner import MPIExecutor
        from repro.runtime.engine import Universe, current_runtime
        from repro.transport import cma
        from repro.transport.shm import shm_world

        universe = Universe(2, transport=shm_world(2))
        assert set(universe.transport.bulk_paths().values()) == {"cma"}
        code = getattr(errno, err)
        reads = []

        def gone(pid, remote, local):
            reads.append(threading.current_thread().name)
            raise OSError(code, os.strerror(code))

        monkeypatch.setattr(cma, "read", gone)   # after the probes ran
        posted, outcome = threading.Event(), threading.Event()
        n = self.N

        def body():
            MPI.Init([])
            w = MPI.COMM_WORLD
            w.Errhandler_set(MPI.ERRORS_RETURN)
            if w.Rank() == 0:
                if order == "posted":
                    assert posted.wait(timeout=10)
                w.Isend(np.ones(n), 0, n, MPI.DOUBLE, 1, 5)
                assert outcome.wait(timeout=10)
                return "sender"
            buf = np.zeros(n)
            if order == "posted":
                req = w.Irecv(buf, 0, n, MPI.DOUBLE, 0, 5)
                posted.set()
            else:
                mailbox = current_runtime().mailbox
                while mailbox.pending_counts()[0] == 0:   # the RTS is in
                    time.sleep(0.001)
                req = w.Irecv(buf, 0, n, MPI.DOUBLE, 0, 5)
            try:
                with pytest.raises(ProcFailedException) as ei:
                    req.Wait()
                assert ei.value.failed_rank == 0
                assert isinstance(ei.value.__cause__, ConnectionError)
            finally:
                outcome.set()
            return "survivor"

        with MPIExecutor(2, universe=universe) as ex:
            assert ex.run(body, timeout=TIMEOUT) == ["sender", "survivor"]
        # the match — and with it the read — ran in the pump for a
        # receive posted first, in the receiving rank's own thread for
        # an RTS that had to wait
        assert len(reads) == 1
        assert reads[0].startswith("repro-pump") == (order == "posted")


# --- process-backend hard kills at protocol edges -----------------------------
#
# SPMD bodies must be module-level (they cross the process boundary by
# reference).  All timing bounds are measured *inside* the victims where
# possible — the whole-job bound includes ~0.5 s of interpreter spawn.

PROC_NPROCS = 4
PROC_TIMEOUT = 60.0


def proc_plain_body():
    MPI.Init([])
    w = MPI.COMM_WORLD
    sb = np.array([1.0])
    rb = np.zeros(1)
    w.Allreduce(sb, 0, rb, 0, 1, MPI.DOUBLE, MPI.SUM)
    MPI.Finalize()
    return "done"


def proc_rendezvous_body():
    """A >= eager-limit Send takes the RTS/CTS handshake; the sender is
    killed right after shipping the RTS, leaving the receiver matched to
    a dead sender — only peer-loss classification can free it."""
    MPI.Init([])
    w = MPI.COMM_WORLD
    # 4 MiB of doubles: well past eager, and too big to sit whole in a
    # same-host pair's bulk lane (which would keep it eager)
    n = (4 * 1024 * 1024) // 8
    if w.Rank() == 0:
        buf = np.ones(n)
        w.Send(buf, 0, n, MPI.DOUBLE, 1, 5)
        return "unreachable"
    if w.Rank() == 1:
        buf = np.zeros(n)
        t0 = time.monotonic()
        try:
            w.Recv(buf, 0, n, MPI.DOUBLE, 0, 5)
        except AbortException:
            raise RuntimeError("unwound %.3f" % (time.monotonic() - t0))
        return "unreachable"
    # bystanders park in a collective that includes the dead rank
    w.Barrier()
    return "unreachable"


def proc_bulk_send_body():
    """A 1 MiB Send between same-host ranks is eager with its body in
    the bulk lane; the sender is killed after the header went out on the
    socket and before the body reached the lane, leaving the receiver's
    pump in a lane read that nothing will ever feed."""
    MPI.Init([])
    w = MPI.COMM_WORLD
    n = (1024 * 1024) // 8
    if w.Rank() == 1:
        w.Send(np.ones(n), 0, n, MPI.DOUBLE, 0, 5)
        return "unreachable"
    if w.Rank() == 0:
        buf = np.zeros(n)
        t0 = time.monotonic()
        try:
            w.Recv(buf, 0, n, MPI.DOUBLE, 1, 5)
        except AbortException:
            raise RuntimeError("unwound %.3f" % (time.monotonic() - t0))
        return "unreachable"
    w.Barrier()
    return "unreachable"


#: survivors of a rank killed mid-rendezvous must see the loss within
#: this (measured inside the survivor; EOF detection is immediate)
GET_KILL_BOUND = 2.0

#: 4 MiB of doubles: rendezvous on every pair, with or without lanes
_GET_N = (4 * 1024 * 1024) // 8


def proc_get_sender_killed_body(order):
    """Under ERRORS_RETURN: rank 1 receives a rendezvous-sized message
    whose sender, rank 0, is hard-killed right after shipping its RTS.
    ``posted``: the receive is waiting when the RTS arrives (the match
    runs in the pump); ``unexpected``: the RTS waits for the receive,
    its sender long dead (the match runs in rank 1's own thread)."""
    MPI.Init([])
    w = MPI.COMM_WORLD
    w.Errhandler_set(MPI.ERRORS_RETURN)
    if w.Rank() == 0:
        if order == "posted":
            time.sleep(0.5)
        w.Send(np.ones(_GET_N), 0, _GET_N, MPI.DOUBLE, 1, 5)
        return "unreachable"
    buf = np.zeros(_GET_N)
    if order == "unexpected":
        time.sleep(0.5)
        t0 = time.monotonic()
    req = w.Irecv(buf, 0, _GET_N, MPI.DOUBLE, 0, 5)
    if order == "posted":
        time.sleep(0.5)         # the sender dies about now
        t0 = time.monotonic()
    try:
        req.Wait()
    except ProcFailedException as exc:
        dt = time.monotonic() - t0
        assert exc.failed_rank == 0, exc
        assert dt < GET_KILL_BOUND, f"took {dt:.2f}s to see the loss"
    else:
        # only legal if the payload was read in full before the sender
        # was gone (the kernel keeps a dying process's memory alive for
        # a read already under way): then every byte must be there
        assert order == "posted" and np.all(buf == 1.0), \
            "Recv from a dead sender returned without its message"
    MPI.Finalize()
    return "survived"


def proc_get_receiver_killed_body():
    """Under ERRORS_RETURN: rank 0 sends a rendezvous-sized message to
    rank 1, which is hard-killed after reading the payload out of rank
    0's memory and before saying so (no DONE).  The parked send must
    complete with ERR_PROC_FAILED through its armed failure scope."""
    MPI.Init([])
    w = MPI.COMM_WORLD
    w.Errhandler_set(MPI.ERRORS_RETURN)
    if w.Rank() == 1:
        w.Recv(np.zeros(_GET_N), 0, _GET_N, MPI.DOUBLE, 0, 5)
        MPI.Finalize()          # reached only where there is no get
        return "received"
    t0 = time.monotonic()
    try:
        w.Send(np.ones(_GET_N), 0, _GET_N, MPI.DOUBLE, 1, 5)
    except ProcFailedException as exc:
        dt = time.monotonic() - t0
        assert exc.failed_rank == 1, exc
        assert dt < GET_KILL_BOUND, f"took {dt:.2f}s to see the loss"
    else:
        # legal only where the pair has no single-copy get (sockets
        # only, or a kernel that refuses the read): the fault site is
        # then never reached and the message is simply delivered
        from repro.runtime.engine import current_runtime
        path = current_runtime().universe.transport.bulk_paths()["0->1"]
        assert path != "cma", "Send completed though its receiver " \
            "died before confirming the payload"
        MPI.Finalize()
        return f"delivered over {path}"
    MPI.Finalize()
    return "survived"


def proc_segmented_bcast_body():
    """A large Bcast runs the segmented pipeline (many schedule rounds);
    the root is killed between rounds, mid-pipeline."""
    MPI.Init([])
    w = MPI.COMM_WORLD
    n = (2 * 1024 * 1024) // 8
    buf = np.ones(n) if w.Rank() == 0 else np.zeros(n)
    t0 = time.monotonic()
    try:
        w.Bcast(buf, 0, n, MPI.DOUBLE, 0)
    except AbortException:
        raise RuntimeError("unwound %.3f" % (time.monotonic() - t0))
    return "unreachable"


class TestProcHardKills:
    """Hard kills (os._exit on the worker) at each instrumented site."""

    def _assert_prompt_victims(self, failures, dead):
        assert dead in failures, failures
        for rank, failure in failures.items():
            if rank == dead or not isinstance(failure, RuntimeError) \
                    or "unwound" not in str(failure):
                continue
            dt = float(str(failure).split()[-1])
            assert dt < PROMPT, \
                f"rank {rank} took {dt:.2f}s to unwind after the kill"

    def test_kill_during_bootstrap_fails_fast_naming_rank(self,
                                                          monkeypatch):
        """Satellite: a worker dying before rendezvous must fail the job
        promptly, naming the dead rank — not wait out the 30 s
        bootstrap timeout."""
        monkeypatch.setenv("REPRO_FAULT", "bootstrap:1")
        t0 = time.monotonic()
        with pytest.raises(RankFailure) as ei:
            procrun(PROC_NPROCS, proc_plain_body, timeout=PROC_TIMEOUT)
        dt = time.monotonic() - t0
        assert dt < 10.0, f"bootstrap death took {dt:.1f}s to surface"
        failures = ei.value.failures
        assert 1 in failures, failures
        assert "bootstrap" in str(failures[1]), failures

    def test_kill_mid_rendezvous_unblocks_matched_receiver(self,
                                                           monkeypatch):
        monkeypatch.setenv("REPRO_FAULT", "rendezvous.cts:0")
        with pytest.raises(RankFailure) as ei:
            procrun(PROC_NPROCS, proc_rendezvous_body,
                    timeout=PROC_TIMEOUT)
        self._assert_prompt_victims(ei.value.failures, dead=0)

    def test_kill_mid_segmented_bcast(self, monkeypatch):
        # hit 2: the root survives the first inter-round edge, dies on
        # the next — peers already hold segment 0 and wait for more
        monkeypatch.setenv("REPRO_FAULT", "coll.round:0:2")
        with pytest.raises(RankFailure) as ei:
            procrun(PROC_NPROCS, proc_segmented_bcast_body,
                    timeout=PROC_TIMEOUT)
        self._assert_prompt_victims(ei.value.failures, dead=0)

    def test_kill_mid_shm_ring_write_detected_and_swept(self,
                                                        monkeypatch):
        """Satellite: a rank hard-killed halfway through a bulk frame
        (header on the socket, body never reaches the lane).  The ring
        produces no EOF and the receiver's one pump sits in the lane
        read, so that read has to notice the socket's EOF itself.
        Survivors must converge on the dead rank promptly, and the
        launcher's segment sweep must leave nothing in ``/dev/shm``
        (the victim's ``os._exit`` runs no cleanup at all)."""
        import os

        def shm_entries():
            try:
                return {n for n in os.listdir("/dev/shm")
                        if n.startswith("repro_")}
            except FileNotFoundError:  # pragma: no cover - non-Linux
                return set()

        monkeypatch.setenv("REPRO_SHM", "1")
        # the killed sender's probes are denied, so what it sends takes
        # the ring (a capable pair would announce the body and let the
        # receiver read it in place, never reaching the site)
        monkeypatch.setenv("REPRO_FAULT", "cma.probe:1::deny,shm.ring:1")
        before = shm_entries()
        t0 = time.monotonic()
        with pytest.raises(RankFailure) as ei:
            procrun(PROC_NPROCS, proc_bulk_send_body,
                    timeout=PROC_TIMEOUT)
        dt = time.monotonic() - t0
        assert dt < 15.0, f"shm-ring death took {dt:.1f}s to surface"
        self._assert_prompt_victims(ei.value.failures, dead=1)
        leaked = shm_entries() - before
        assert not leaked, f"leaked /dev/shm segments: {sorted(leaked)}"

    @pytest.mark.parametrize("order", ["posted", "unexpected"])
    def test_survivor_recv_from_sender_killed_after_rts(self, order,
                                                        monkeypatch):
        """Fault matrix: the sender dies at ``rendezvous.cts``; under
        ERRORS_RETURN the survivor's Recv raises ProcFailedException —
        not ConnectionError / OSError out of a failed get — for both
        match orders, and the survivor goes on to Finalize."""
        monkeypatch.setenv("REPRO_FAULT", "rendezvous.cts:0")
        with pytest.raises(RankFailure) as ei:
            procrun(2, proc_get_sender_killed_body, args=(order,),
                    timeout=PROC_TIMEOUT)
        # only the injected death: the survivor's own assertions held
        assert set(ei.value.failures) == {0}, ei.value.failures

    def test_sender_of_receiver_killed_before_done(self, monkeypatch):
        """Fault matrix: the receiver dies between get and DONE
        (``rendezvous.done``); the sender's parked send completes with
        ERR_PROC_FAILED.  On a pair that cannot read in place the site
        is never reached and the job simply succeeds."""
        monkeypatch.setenv("REPRO_FAULT", "rendezvous.done:1")
        try:
            out = procrun(2, proc_get_receiver_killed_body,
                          timeout=PROC_TIMEOUT)
        except RankFailure as exc:
            assert set(exc.failures) == {1}, exc.failures
        else:
            pytest.skip(f"no single-copy get on this pair: {out[0]}")

    def test_kill_during_finalize(self, monkeypatch):
        """A rank dying inside Finalize must not wedge the barrier: the
        survivors' finalize tolerates the classified peer loss and the
        launcher reports exactly the dead rank."""
        monkeypatch.setenv("REPRO_FAULT", "finalize:2")
        t0 = time.monotonic()
        with pytest.raises(RankFailure) as ei:
            procrun(PROC_NPROCS, proc_plain_body, timeout=PROC_TIMEOUT)
        dt = time.monotonic() - t0
        assert dt < 15.0, f"finalize death took {dt:.1f}s to surface"
        assert set(ei.value.failures) == {2}, ei.value.failures
