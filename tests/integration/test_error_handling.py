"""Error-handler semantics and argument validation across the OO API."""

import numpy as np
import pytest

from repro import mpirun, procrun
from repro.executor.runner import RankFailure
from repro.mpijava import MPI, MPIException
from tests.conftest import run


class TestErrorsReturn:
    @pytest.mark.parametrize("bad_call,expected_class", [
        (lambda w: w.Send(np.zeros(1, dtype=np.int32), 0, 1, MPI.INT,
                          5, 0), "ERR_RANK"),
        (lambda w: w.Send(np.zeros(1, dtype=np.int32), 0, 1, MPI.INT,
                          0, -5), "ERR_TAG"),
        (lambda w: w.Send(np.zeros(1, dtype=np.int32), 0, 5, MPI.INT,
                          0, 0), "ERR_BUFFER"),
        (lambda w: w.Send(np.zeros(1, dtype=np.int32), 0, -1, MPI.INT,
                          0, 0), "ERR_COUNT"),
        (lambda w: w.Send([1, 2], 0, 2, MPI.INT, 0, 0), "ERR_BUFFER"),
        (lambda w: w.Bcast(np.zeros(1, dtype=np.int32), 0, 1, MPI.INT,
                           9), "ERR_ROOT"),
        (lambda w: w.Recv(np.zeros(1, dtype=np.int32), 0, 1, MPI.INT,
                          77, 0), "ERR_RANK"),
    ])
    def test_argument_validation(self, bad_call, expected_class):
        def body(call, exp):
            w = MPI.COMM_WORLD
            w.Errhandler_set(MPI.ERRORS_RETURN)
            try:
                call(w)
                return "no error"
            except MPIException as exc:
                return exc.Get_error_class() == getattr(MPI, exp)

        out = run(2, body, args=(bad_call, expected_class))
        assert out == [True, True]

    def test_handler_is_per_communicator(self):
        def body():
            w = MPI.COMM_WORLD
            d = w.Dup()
            d.Errhandler_set(MPI.ERRORS_RETURN)
            # w still fatal, d returns errors
            try:
                d.Send(np.zeros(1, dtype=np.int32), 0, 1, MPI.INT, 99, 0)
                return "no error"
            except MPIException:
                ok = w.Errhandler_get() is MPI.ERRORS_ARE_FATAL
                d.Free()
                return ok

        assert run(2, body) == [True, True]


class TestErrorsAreFatal:
    def test_fatal_error_aborts_whole_job(self):
        def body():
            MPI.Init([])
            w = MPI.COMM_WORLD
            if w.Rank() == 0:
                # default ERRORS_ARE_FATAL: this poisons the job
                w.Send(np.zeros(1, dtype=np.int32), 0, 1, MPI.INT, 99, 0)
                return "unreachable"
            # rank 1 blocks and must be woken by the abort
            buf = np.zeros(1, dtype=np.int32)
            w.Recv(buf, 0, 1, MPI.INT, 0, 0)
            return "unreachable"

        with pytest.raises(RankFailure):
            mpirun(2, body, timeout=30)


class TestExceptionContents:
    def test_exception_is_informative(self):
        def body():
            w = MPI.COMM_WORLD
            w.Errhandler_set(MPI.ERRORS_RETURN)
            try:
                w.Send(np.zeros(1, dtype=np.int32), 0, 1, MPI.INT, 42, 0)
            except MPIException as exc:
                return str(exc)
            return ""

        msg = run(2, body)[0]
        assert "42" in msg and "rank" in msg.lower()

    def test_error_string_roundtrip(self):
        def body():
            cls = MPI.Get_error_class(MPI.ERR_TRUNCATE)
            return MPI.Get_error_string(cls)

        assert "truncated" in run(1, body)[0]


class TestStaticClassProtection:
    def test_mpi_cannot_be_instantiated(self):
        with pytest.raises(TypeError):
            MPI()

    def test_char_helpers_roundtrip(self):
        text = "mpiJava ✓ 1999"
        arr = MPI.to_chars(text)
        assert arr.dtype == np.uint16
        assert MPI.from_chars(arr) == text
        assert len(MPI.new_chars(7)) == 7


def raising_land_body():
    """Rank 1 posts a receive whose ``land`` raises; rank 0 feeds it over
    the wire, so the exception escapes ``deliver()`` in rank 1's pump."""
    from repro.runtime.engine import current_runtime
    from repro.runtime.envelope import Envelope
    from repro.runtime.requests import RequestImpl
    MPI.Init([])
    w = MPI.COMM_WORLD
    rt = current_runtime()
    token = np.zeros(1, dtype=np.int8)
    if w.Rank() == 1:
        def land(env):
            raise ZeroDivisionError("land blew up")

        req = RequestImpl(rt.universe, RequestImpl.KIND_RECV)
        rt.mailbox.post_recv(req, 0, 7, 0, land)
        w.Send(token, 0, 1, MPI.BYTE, 0, 1)          # it is posted
        req.wait()
    else:
        w.Recv(token, 0, 1, MPI.BYTE, 1, 1)
        rt.universe.transport.send(Envelope(
            src=0, dst=1, context=0, tag=7, seq=rt.next_seq(),
            payload=token, nelems=1))
        w.Recv(token, 0, 1, MPI.BYTE, 1, 2)          # rank 1 never sends
    MPI.Finalize()


class TestDeliveryThreadDies:
    """An exception escaping a delivery used to end the pump thread in
    silence: every later receive of the rank parked forever and the job
    ended by ``JobTimeoutError``.  It must fail with the cause."""

    @pytest.mark.parametrize("backend", ("socket", "procs"))
    def test_job_fails_with_the_cause_not_a_timeout(self, backend):
        with pytest.raises(RankFailure) as ei:
            if backend == "procs":
                procrun(2, raising_land_body, timeout=20)
            else:
                mpirun(2, raising_land_body, transport="socket",
                       timeout=20)
        assert "ZeroDivisionError: land blew up" in str(ei.value)
