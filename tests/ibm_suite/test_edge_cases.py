"""Cross-cutting edge cases the categorized suites don't cover."""

import numpy as np
import pytest

from repro import procrun
from repro.mpijava import MPI, Comm, MPIException
from tests.conftest import run


class TestZeroAndDegenerate:
    def test_zero_count_messages(self, mode_transport):
        def body():
            w = MPI.COMM_WORLD
            buf = np.zeros(1, dtype=np.int32)
            if w.Rank() == 0:
                w.Send(buf, 0, 0, MPI.INT, 1, 0)
                return None
            st = w.Recv(buf, 0, 0, MPI.INT, 0, 0)
            return st.Get_count(MPI.INT)

        assert run(2, body, transport=mode_transport)[1] == 0

    def test_zero_count_collectives(self, mode_transport):
        def body():
            w = MPI.COMM_WORLD
            buf = np.zeros(1, dtype=np.float64)
            w.Bcast(buf, 0, 0, MPI.DOUBLE, 0)
            out = np.zeros(1, dtype=np.float64)
            w.Allreduce(buf, 0, out, 0, 0, MPI.DOUBLE, MPI.SUM)
            return True

        assert all(run(3, body, transport=mode_transport))

    def test_odd_rank_count_allreduce(self, mode_transport):
        """Non-power-of-two communicators take the reduce+bcast path."""
        def body():
            w = MPI.COMM_WORLD
            sb = np.array([w.Rank() + 1.0])
            rb = np.zeros(1)
            w.Allreduce(sb, 0, rb, 0, 1, MPI.DOUBLE, MPI.SUM)
            return float(rb[0])

        for n in (3, 5):
            out = run(n, body, transport=mode_transport)
            assert all(v == n * (n + 1) / 2 for v in out)

    def test_self_message_on_world(self, mode_transport):
        def body():
            w = MPI.COMM_WORLD
            me = w.Rank()
            req = w.Irecv(np.zeros(1, dtype=np.int32), 0, 1, MPI.INT, me,
                          0)
            w.Send(np.array([me], dtype=np.int32), 0, 1, MPI.INT, me, 0)
            st = req.Wait()
            return st.source == me

        assert all(run(3, body, transport=mode_transport))

    def test_self_ssend_nonblocking(self, mode_transport):
        def body():
            w = MPI.COMM_WORLD
            me = w.Rank()
            buf = np.zeros(1, dtype=np.int32)
            rreq = w.Irecv(buf, 0, 1, MPI.INT, me, 0)
            sreq = w.Issend(np.array([9], dtype=np.int32), 0, 1, MPI.INT,
                            me, 0)
            rreq.Wait()
            sreq.Wait()
            return int(buf[0])

        assert run(2, body, transport=mode_transport) == [9, 9]


class TestOrderingSubtleties:
    def test_tag_selectivity_out_of_order(self, mode_transport):
        """A later-tagged message can be received first when tags select
        it — matching is by tag, overtaking only forbidden per match."""
        def body():
            w = MPI.COMM_WORLD
            if w.Rank() == 0:
                w.Send(np.array([1], dtype=np.int32), 0, 1, MPI.INT, 1, 5)
                w.Send(np.array([2], dtype=np.int32), 0, 1, MPI.INT, 1, 6)
                return None
            a = np.zeros(1, dtype=np.int32)
            b = np.zeros(1, dtype=np.int32)
            w.Recv(b, 0, 1, MPI.INT, 0, 6)   # take tag-6 first
            w.Recv(a, 0, 1, MPI.INT, 0, 5)
            return (int(a[0]), int(b[0]))

        assert run(2, body, transport=mode_transport)[1] == (1, 2)

    def test_interleaved_communicators_same_tag(self, mode_transport):
        def body():
            w = MPI.COMM_WORLD
            d1 = w.Dup()
            d2 = w.Dup()
            if w.Rank() == 0:
                for i, c in enumerate((w, d1, d2)):
                    c.Send(np.array([i], dtype=np.int32), 0, 1, MPI.INT,
                           1, 0)
                out = None
            else:
                vals = []
                buf = np.zeros(1, dtype=np.int32)
                for c in (d2, w, d1):   # receive in scrambled comm order
                    c.Recv(buf, 0, 1, MPI.INT, 0, 0)
                    vals.append(int(buf[0]))
                out = vals
            d1.Free()
            d2.Free()
            return out

        assert run(2, body, transport=mode_transport)[1] == [2, 0, 1]

    def test_issend_not_complete_before_match(self):
        """Synchronous semantics: the request must not complete while no
        receive exists (checked on the in-process path where timing is
        controllable)."""
        def body():
            import time
            w = MPI.COMM_WORLD
            if w.Rank() == 0:
                req = w.Issend(np.ones(1, dtype=np.int32), 0, 1, MPI.INT,
                               1, 0)
                time.sleep(0.05)
                before = req.Test() is not None
                w.Barrier()          # lets rank 1 post the receive
                st = req.Wait()
                return before
            w.Barrier()
            buf = np.zeros(1, dtype=np.int32)
            w.Recv(buf, 0, 1, MPI.INT, 0, 0)
            return None

        assert run(2, body, transport="inproc")[0] is False


class TestCommCompare:
    def test_similar_communicators(self, mode_transport):
        def body():
            w = MPI.COMM_WORLD
            me, size = w.Rank(), w.Size()
            forward = w.Split(0, me)
            backward = w.Split(0, size - me)
            result = Comm.Compare(forward, backward)
            forward.Free()
            backward.Free()
            return result

        out = run(3, body, transport=mode_transport)
        assert all(r == MPI.SIMILAR for r in out)

    def test_unequal_communicators(self, mode_transport):
        def body():
            w = MPI.COMM_WORLD
            sub = w.Split(0 if w.Rank() < 2 else MPI.UNDEFINED, w.Rank())
            if sub is None:
                return None
            result = Comm.Compare(w, sub)
            return result

        out = run(3, body, transport=mode_transport)
        assert out[0] == MPI.UNEQUAL


class TestDatatypeReuse:
    def test_committed_type_reused_across_many_messages(self,
                                                        mode_transport):
        def body():
            w = MPI.COMM_WORLD
            t = MPI.INT.Vector(4, 1, 2).Commit()
            data = np.arange(8, dtype=np.int32)
            out = np.zeros(8, dtype=np.int32)
            ok = True
            for i in range(10):
                if w.Rank() == 0:
                    w.Send(data, 0, 1, t, 1, i)
                else:
                    out[:] = 0
                    w.Recv(out, 0, 1, t, 0, i)
                    ok = ok and list(out[::2]) == [0, 2, 4, 6]
            t.Free()
            return ok

        assert all(run(2, body, transport=mode_transport))


# --- windows that do not fit their buffer ------------------------------------
#
# The paper's buffer model is (array, offset, count, datatype) over
# bounds-checked arrays: an overrunning window is an error of the call
# that named it, in the rank that named it, on every backend — never a
# silently shorter message, a dead pump thread or the *peer's* abort.
# Bodies are module-level so the process backend can import them.

def _window(vector: bool):
    """(datatype, count, elements the window needs)."""
    if vector:
        return MPI.DOUBLE.Vector(5, 1, 2).Commit(), 1, 9
    return MPI.DOUBLE, 10, 10


def _code(call):
    """The error class ``call`` raises, or None."""
    try:
        call()
    except MPIException as exc:
        return exc.Get_error_class()
    return None


def window_body(case: str, vector: bool):
    MPI.Init([])
    window = _window(vector)
    try:
        return _window_case(case, vector, *window)
    finally:
        if vector:
            window[0].Free()
        MPI.Finalize()


def _window_case(case: str, vector: bool, t, count: int, need: int):
    w = MPI.COMM_WORLD
    w.Errhandler_set(MPI.ERRORS_RETURN)
    rank = w.Rank()
    short, full = np.zeros(5), np.arange(float(need))
    go = np.zeros(1, dtype=np.int8)
    if case == "send":
        if rank == 0:
            seen = _code(lambda: w.Send(short, 0, count, t, 1, 1))
            w.Send(full, 0, count, t, 1, 1)
            return seen
        got = np.zeros(need)
        w.Recv(got, 0, count, t, 0, 1)
        step = 2 if vector else 1
        return np.array_equal(got[::step], full[::step])   # the resend
    if case == "recv_posted_first":
        if rank == 1:
            seen = _code(lambda: w.Irecv(short, 0, count, t, 0, 1))
            req = w.Irecv(np.zeros(need), 0, count, t, 0, 1)
            w.Send(go, 0, 1, MPI.BYTE, 0, 2)
            req.Wait()
            return seen
        w.Recv(go, 0, 1, MPI.BYTE, 1, 2)
        w.Send(full, 0, count, t, 1, 1)
        return None
    if case == "recv_posted_late":
        if rank == 1:
            w.Recv(go, 0, 1, MPI.BYTE, 0, 2)      # the message is here
            seen = _code(lambda: w.Recv(short, 0, count, t, 0, 1))
            w.Recv(np.zeros(need), 0, count, t, 0, 1)
            return seen
        w.Send(full, 0, count, t, 1, 1)
        w.Send(go, 0, 1, MPI.BYTE, 1, 2)
        return None
    if case == "underrun":
        # negative stride: instance at offset 1 would touch element -1
        back = MPI.DOUBLE.Vector(2, 1, -2).Commit()
        buf = np.arange(4.0)
        if rank == 0:
            seen = _code(lambda: w.Send(buf, 1, 1, back, 1, 1))
            w.Send(buf, 2, 1, back, 1, 1)
        else:
            seen = _code(lambda: w.Recv(buf, 1, 1, back, 0, 1))
            w.Recv(buf, 2, 1, back, 0, 1)
        back.Free()
        return seen
    assert case == "gatherv"
    # the root's last displacement lands one instance past its buffer
    size = w.Size()
    mine = np.full(need, float(rank))
    recvbuf = np.zeros(size * t.Extent() // 8 * count)
    displs = [r * count for r in range(size - 1)] + [(size - 1) * count + 1]
    return _code(lambda: w.Gatherv(mine, 0, count, t, recvbuf, 0,
                                   [count] * size, displs, t, 0))


#: who must see ERR_BUFFER, per case (rank 0, rank 1)
_OFFENDER = {"send": (True, False), "recv_posted_first": (False, True),
             "recv_posted_late": (False, True), "underrun": (True, True),
             "gatherv": (True, False)}


class TestWindowOverrun:
    @pytest.mark.parametrize("vector", (False, True),
                             ids=("contiguous", "vector"))
    @pytest.mark.parametrize("case", sorted(_OFFENDER))
    @pytest.mark.parametrize("backend", ("inproc", "socket", "procs"))
    def test_err_buffer_in_the_rank_that_named_the_window(
            self, backend, case, vector):
        # timeout=20: at the parent commit two of these hang (a dead pump)
        if backend == "procs":
            out = procrun(2, window_body, args=(case, vector), timeout=20)
        else:
            out = run(2, window_body, transport=backend,
                      args=(case, vector), timeout=20, init=False)
        assert out == [MPI.ERR_BUFFER if offender else
                       (True if case == "send" else None)
                       for offender in _OFFENDER[case]]
