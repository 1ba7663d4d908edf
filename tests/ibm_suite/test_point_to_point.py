"""IBM-suite category: point-to-point communication.

Each test runs in both the paper's execution modes (SM = in-process,
DM = sockets), like the §3.4 functionality runs.
"""

import numpy as np
import pytest

from repro.mpijava import MPI, MPIException
from tests.conftest import run


class TestBlocking:
    def test_send_recv_int(self, mode_transport):
        def body():
            w = MPI.COMM_WORLD
            if w.Rank() == 0:
                w.Send(np.arange(8, dtype=np.int32), 0, 8, MPI.INT, 1, 3)
                return None
            buf = np.zeros(8, dtype=np.int32)
            st = w.Recv(buf, 0, 8, MPI.INT, 0, 3)
            assert st.source == 0 and st.tag == 3
            return list(buf)

        out = run(2, body, transport=mode_transport)
        assert out[1] == list(range(8))

    @pytest.mark.parametrize("dtype,np_dtype", [
        ("BYTE", np.int8), ("SHORT", np.int16), ("INT", np.int32),
        ("LONG", np.int64), ("FLOAT", np.float32), ("DOUBLE", np.float64),
    ])
    def test_all_numeric_datatypes(self, mode_transport, dtype, np_dtype):
        def body(name, npd):
            w = MPI.COMM_WORLD
            dt = getattr(MPI, name)
            data = np.arange(5).astype(npd)
            if w.Rank() == 0:
                w.Send(data, 0, 5, dt, 1, 0)
                return True
            buf = np.zeros(5, dtype=npd)
            w.Recv(buf, 0, 5, dt, 0, 0)
            return bool(np.array_equal(buf, data))

        out = run(2, body, transport=mode_transport,
                  args=(dtype, np_dtype))
        assert out[1]

    def test_boolean_datatype(self, mode_transport):
        def body():
            w = MPI.COMM_WORLD
            data = np.array([True, False, True])
            if w.Rank() == 0:
                w.Send(data, 0, 3, MPI.BOOLEAN, 1, 0)
                return None
            buf = np.zeros(3, dtype=np.bool_)
            w.Recv(buf, 0, 3, MPI.BOOLEAN, 0, 0)
            return list(buf)

        assert run(2, body, transport=mode_transport)[1] == \
            [True, False, True]

    def test_offsets_honoured(self, mode_transport):
        def body():
            w = MPI.COMM_WORLD
            if w.Rank() == 0:
                buf = np.arange(10, dtype=np.int32)
                w.Send(buf, 4, 3, MPI.INT, 1, 0)
                return None
            buf = np.zeros(10, dtype=np.int32)
            w.Recv(buf, 7, 3, MPI.INT, 0, 0)
            return list(buf)

        out = run(2, body, transport=mode_transport)[1]
        assert out == [0] * 7 + [4, 5, 6]

    def test_short_message_into_large_buffer(self, mode_transport):
        def body():
            w = MPI.COMM_WORLD
            if w.Rank() == 0:
                w.Send(np.ones(2, dtype=np.int32), 0, 2, MPI.INT, 1, 0)
                return None
            buf = np.zeros(50, dtype=np.int32)
            st = w.Recv(buf, 0, 50, MPI.INT, 0, 0)
            return st.Get_count(MPI.INT)

        assert run(2, body, transport=mode_transport)[1] == 2

    def test_truncation_is_error(self, mode_transport):
        def body():
            w = MPI.COMM_WORLD
            w.Errhandler_set(MPI.ERRORS_RETURN)
            if w.Rank() == 0:
                w.Send(np.ones(10, dtype=np.int32), 0, 10, MPI.INT, 1, 0)
                return None
            buf = np.zeros(2, dtype=np.int32)
            try:
                w.Recv(buf, 0, 2, MPI.INT, 0, 0)
                return "no error"
            except MPIException as exc:
                return exc.Get_error_class()

        assert run(2, body, transport=mode_transport)[1] == \
            MPI.ERR_TRUNCATE

    def test_proc_null_send_recv(self, mode_transport):
        def body():
            w = MPI.COMM_WORLD
            w.Send(np.ones(1, dtype=np.int32), 0, 1, MPI.INT,
                   MPI.PROC_NULL, 0)
            buf = np.full(1, 7, dtype=np.int32)
            st = w.Recv(buf, 0, 1, MPI.INT, MPI.PROC_NULL, 0)
            assert st.source == MPI.PROC_NULL
            assert st.Get_count(MPI.INT) == 0
            return int(buf[0])

        assert run(2, body, transport=mode_transport) == [7, 7]

    def test_get_count_of_zero_size_datatype_is_zero(self, mode_transport):
        """MPI 1.1 §3.2.5: "if the size of the datatype is zero, this
        routine will return a count of zero" (it divided by zero)."""
        def body():
            w = MPI.COMM_WORLD
            if w.Rank() == 0:
                w.Send(np.arange(4, dtype=np.int32), 0, 4, MPI.INT, 1, 0)
                return None
            st = w.Recv(np.zeros(4, dtype=np.int32), 0, 4, MPI.INT, 0, 0)
            empty = MPI.INT.Contiguous(0).Commit()
            out = st.Get_count(empty), st.Get_count(MPI.INT)
            empty.Free()
            return out

        assert run(2, body, transport=mode_transport)[1] == (0, 4)

    def test_any_source_any_tag(self, mode_transport):
        def body():
            w = MPI.COMM_WORLD
            me = w.Rank()
            if me != 0:
                w.Send(np.array([me], dtype=np.int32), 0, 1, MPI.INT, 0,
                       me * 10)
                return None
            seen = {}
            buf = np.zeros(1, dtype=np.int32)
            for _ in range(w.Size() - 1):
                st = w.Recv(buf, 0, 1, MPI.INT, MPI.ANY_SOURCE,
                            MPI.ANY_TAG)
                seen[st.source] = (int(buf[0]), st.tag)
            return seen

        out = run(4, body, transport=mode_transport)[0]
        assert out == {1: (1, 10), 2: (2, 20), 3: (3, 30)}

    def test_message_ordering_same_pair(self, mode_transport):
        def body():
            w = MPI.COMM_WORLD
            if w.Rank() == 0:
                for i in range(20):
                    w.Send(np.array([i], dtype=np.int32), 0, 1, MPI.INT,
                           1, 5)
                return None
            out = []
            buf = np.zeros(1, dtype=np.int32)
            for _ in range(20):
                w.Recv(buf, 0, 1, MPI.INT, 0, 5)
                out.append(int(buf[0]))
            return out

        assert run(2, body, transport=mode_transport)[1] == list(range(20))


class TestModes:
    def test_ssend(self, mode_transport):
        def body():
            w = MPI.COMM_WORLD
            if w.Rank() == 0:
                w.Ssend(np.arange(4, dtype=np.int64), 0, 4, MPI.LONG, 1, 0)
                return None
            buf = np.zeros(4, dtype=np.int64)
            w.Recv(buf, 0, 4, MPI.LONG, 0, 0)
            return list(buf)

        assert run(2, body, transport=mode_transport)[1] == [0, 1, 2, 3]

    def test_issend_completes_on_match(self, mode_transport):
        def body():
            w = MPI.COMM_WORLD
            if w.Rank() == 0:
                req = w.Issend(np.ones(3, dtype=np.int32), 0, 3, MPI.INT,
                               1, 0)
                # receiver delays; Test may be False now
                st = req.Wait()
                return True
            import time
            time.sleep(0.05)
            buf = np.zeros(3, dtype=np.int32)
            w.Recv(buf, 0, 3, MPI.INT, 0, 0)
            return None

        assert run(2, body, transport=mode_transport)[0] is True

    def test_bsend_with_buffer(self, mode_transport):
        def body():
            w = MPI.COMM_WORLD
            if w.Rank() == 0:
                MPI.Buffer_attach(4096)
                w.Bsend(np.arange(6, dtype=np.float64), 0, 6, MPI.DOUBLE,
                        1, 0)
                size = MPI.Buffer_detach()
                return size
            buf = np.zeros(6, dtype=np.float64)
            w.Recv(buf, 0, 6, MPI.DOUBLE, 0, 0)
            return list(buf)

        out = run(2, body, transport=mode_transport)
        assert out[0] == 4096
        assert out[1] == [0, 1, 2, 3, 4, 5]

    def test_bsend_without_buffer_is_error(self, mode_transport):
        def body():
            w = MPI.COMM_WORLD
            w.Errhandler_set(MPI.ERRORS_RETURN)
            if w.Rank() == 0:
                try:
                    w.Bsend(np.ones(1, dtype=np.int32), 0, 1, MPI.INT, 1,
                            0)
                    return "no error"
                except MPIException as exc:
                    # unblock the receiver with a normal send
                    w.Send(np.ones(1, dtype=np.int32), 0, 1, MPI.INT, 1,
                           0)
                    return exc.Get_error_class()
            buf = np.zeros(1, dtype=np.int32)
            w.Recv(buf, 0, 1, MPI.INT, 0, 0)
            return None

        assert run(2, body, transport=mode_transport)[0] == MPI.ERR_BUFFER

    def test_rsend_with_posted_receive(self):
        # SM mode validates ready sends eagerly
        def body():
            w = MPI.COMM_WORLD
            if w.Rank() == 0:
                import time
                time.sleep(0.1)  # let the receive get posted
                w.Rsend(np.full(2, 9, dtype=np.int32), 0, 2, MPI.INT, 1, 0)
                return None
            req = w.Irecv(np.zeros(2, dtype=np.int32), 0, 2, MPI.INT, 0, 0)
            st = req.Wait()
            return st.Get_count(MPI.INT)

        assert run(2, body, transport="inproc")[1] == 2

    def test_rsend_without_receive_is_error(self):
        def body():
            w = MPI.COMM_WORLD
            w.Errhandler_set(MPI.ERRORS_RETURN)
            if w.Rank() == 0:
                try:
                    w.Rsend(np.ones(1, dtype=np.int32), 0, 1, MPI.INT, 1,
                            0)
                    return "no error"
                except MPIException as exc:
                    return exc.Get_error_class()
            import time
            time.sleep(0.2)
            return None

        assert run(2, body, transport="inproc")[0] == MPI.ERR_OTHER


class TestModeVariants:
    """The nonblocking and persistent forms of the three explicit send
    modes.  A ready-mode send needs its receive posted first: the
    receiver says so with a token."""

    def test_ibsend(self, mode_transport):
        def body():
            w = MPI.COMM_WORLD
            if w.Rank() == 0:
                MPI.Buffer_attach(4096)
                data = np.arange(6, dtype=np.float64)
                req = w.Ibsend(data, 0, 6, MPI.DOUBLE, 1, 0)
                req.Wait()
                data[:] = -1        # buffered: ours again at once
                return MPI.Buffer_detach()
            buf = np.zeros(6, dtype=np.float64)
            w.Recv(buf, 0, 6, MPI.DOUBLE, 0, 0)
            return list(buf)

        assert run(2, body, transport=mode_transport) \
            == [4096, [0, 1, 2, 3, 4, 5]]

    def test_irsend(self, mode_transport):
        def body():
            w = MPI.COMM_WORLD
            token = np.zeros(1, dtype=np.int8)
            if w.Rank() == 0:
                w.Recv(token, 0, 1, MPI.BYTE, 1, 1)    # receive is posted
                w.Irsend(np.full(2, 9, dtype=np.int32), 0, 2, MPI.INT, 1,
                         0).Wait()
                return None
            buf = np.zeros(2, dtype=np.int32)
            req = w.Irecv(buf, 0, 2, MPI.INT, 0, 0)
            w.Send(token, 0, 1, MPI.BYTE, 0, 1)
            return (req.Wait().Get_count(MPI.INT), list(buf))

        assert run(2, body, transport=mode_transport)[1] == (2, [9, 9])

    @pytest.mark.parametrize("init", ("Bsend_init", "Ssend_init",
                                      "Rsend_init"))
    def test_persistent_mode_sends_cycle(self, mode_transport, init):
        def body():
            w = MPI.COMM_WORLD
            token = np.zeros(1, dtype=np.int8)
            buf = np.zeros(2, dtype=np.int32)
            if w.Rank() == 0:
                if init == "Bsend_init":
                    MPI.Buffer_attach(4096)
                req = getattr(w, init)(buf, 0, 2, MPI.INT, 1, 0)
                for i in range(3):
                    w.Recv(token, 0, 1, MPI.BYTE, 1, 1)
                    buf[:] = [i, i * 10]
                    req.Start()
                    req.Wait()
                if init == "Bsend_init":
                    MPI.Buffer_detach()
                return None
            req = w.Recv_init(buf, 0, 2, MPI.INT, 0, 0)
            got = []
            for _ in range(3):
                req.Start()
                w.Send(token, 0, 1, MPI.BYTE, 0, 1)    # posted: ready
                req.Wait()
                got.append(list(buf))
            return got

        assert run(2, body, transport=mode_transport)[1] \
            == [[0, 0], [1, 10], [2, 20]]


class TestNonBlocking:
    def test_isend_irecv_wait(self, mode_transport):
        def body():
            w = MPI.COMM_WORLD
            data = np.arange(16, dtype=np.float32)
            if w.Rank() == 0:
                req = w.Isend(data, 0, 16, MPI.FLOAT, 1, 1)
                req.Wait()
                return None
            buf = np.zeros(16, dtype=np.float32)
            req = w.Irecv(buf, 0, 16, MPI.FLOAT, 0, 1)
            st = req.Wait()
            assert req.Is_null()
            return st.Get_count(MPI.FLOAT), float(buf.sum())

        out = run(2, body, transport=mode_transport)[1]
        assert out == (16, float(np.arange(16, dtype=np.float32).sum()))

    def test_test_polls_to_completion(self, mode_transport):
        def body():
            w = MPI.COMM_WORLD
            if w.Rank() == 0:
                import time
                time.sleep(0.05)
                w.Send(np.ones(1, dtype=np.int32), 0, 1, MPI.INT, 1, 0)
                return None
            buf = np.zeros(1, dtype=np.int32)
            req = w.Irecv(buf, 0, 1, MPI.INT, 0, 0)
            polls = 0
            while True:
                st = req.Test()
                polls += 1
                if st is not None:
                    return polls >= 1 and st.source == 0

        assert run(2, body, transport=mode_transport)[1] is True

    def test_waitall(self, mode_transport):
        from repro.mpijava import Request

        def body():
            w = MPI.COMM_WORLD
            n = 5
            if w.Rank() == 0:
                reqs = [w.Isend(np.array([i], dtype=np.int32), 0, 1,
                                MPI.INT, 1, i) for i in range(n)]
                Request.Waitall(reqs)
                return None
            bufs = [np.zeros(1, dtype=np.int32) for _ in range(n)]
            reqs = [w.Irecv(bufs[i], 0, 1, MPI.INT, 0, i)
                    for i in range(n)]
            statuses = Request.Waitall(reqs)
            assert all(r.Is_null() for r in reqs)
            assert sorted(s.tag for s in statuses) == list(range(n))
            return [int(b[0]) for b in bufs]

        assert run(2, body, transport=mode_transport)[1] == [0, 1, 2, 3, 4]

    def test_waitany_sets_index(self, mode_transport):
        from repro.mpijava import Request

        def body():
            w = MPI.COMM_WORLD
            if w.Rank() == 0:
                import time
                time.sleep(0.05)
                w.Send(np.array([1], dtype=np.int32), 0, 1, MPI.INT, 1, 2)
                w.Send(np.array([2], dtype=np.int32), 0, 1, MPI.INT, 1, 1)
                return None
            b1 = np.zeros(1, dtype=np.int32)
            b2 = np.zeros(1, dtype=np.int32)
            reqs = [w.Irecv(b1, 0, 1, MPI.INT, 0, 1),
                    w.Irecv(b2, 0, 1, MPI.INT, 0, 2)]
            first = Request.Waitany(reqs)
            second = Request.Waitany(reqs)
            # the paper's §2.1 extra Status field
            return sorted([first.index, second.index])

        assert run(2, body, transport=mode_transport)[1] == [0, 1]

    def test_waitsome(self, mode_transport):
        from repro.mpijava import Request

        def body():
            w = MPI.COMM_WORLD
            if w.Rank() == 0:
                for i in range(3):
                    w.Send(np.array([i], dtype=np.int32), 0, 1, MPI.INT,
                           1, i)
                return None
            bufs = [np.zeros(1, dtype=np.int32) for _ in range(3)]
            reqs = [w.Irecv(bufs[i], 0, 1, MPI.INT, 0, i)
                    for i in range(3)]
            done = []
            while len(done) < 3:
                for st in Request.Waitsome(reqs):
                    done.append(st.index)
                    reqs[st.index] = Request(0)  # null
                reqs2 = [r for r in reqs if not r.Is_null()]
                if not reqs2:
                    break
            return sorted(done)

        assert run(2, body, transport=mode_transport)[1] == [0, 1, 2]

    def test_cancel_unmatched_recv(self, mode_transport):
        def body():
            w = MPI.COMM_WORLD
            if w.Rank() == 0:
                req = w.Irecv(np.zeros(1, dtype=np.int32), 0, 1, MPI.INT,
                              1, 99)
                req.Cancel()
                st = req.Wait()
                return st.Test_cancelled()
            return None

        assert run(2, body, transport=mode_transport)[0] is True


class TestCombined:
    def test_sendrecv_ring(self, mode_transport):
        def body():
            w = MPI.COMM_WORLD
            me, size = w.Rank(), w.Size()
            right = (me + 1) % size
            left = (me - 1) % size
            sbuf = np.array([me], dtype=np.int32)
            rbuf = np.zeros(1, dtype=np.int32)
            st = w.Sendrecv(sbuf, 0, 1, MPI.INT, right, 7,
                            rbuf, 0, 1, MPI.INT, left, 7)
            assert st.source == left
            return int(rbuf[0])

        out = run(4, body, transport=mode_transport)
        assert out == [3, 0, 1, 2]

    def test_sendrecv_replace_swap(self, mode_transport):
        def body():
            w = MPI.COMM_WORLD
            me = w.Rank()
            other = 1 - me
            buf = np.full(3, me + 1, dtype=np.int32)
            w.Sendrecv_replace(buf, 0, 3, MPI.INT, other, 0, other, 0)
            return list(buf)

        out = run(2, body, transport=mode_transport)
        assert out[0] == [2, 2, 2] and out[1] == [1, 1, 1]

    @pytest.mark.parametrize("call", ["Sendrecv", "Sendrecv_replace"])
    def test_a_rejected_send_half_takes_its_receive_back(self, mode_transport,
                                                         call):
        """A call that raised left nothing posted: the next matching
        message goes to the next receive, not into the failed call's
        window (or ``Sendrecv_replace``'s hidden inbox)."""
        def body(name):
            w = MPI.COMM_WORLD
            w.Errhandler_set(MPI.ERRORS_RETURN)
            if w.Rank() == 1:
                w.Barrier()
                for v in (42, 43):
                    w.Send(np.array([v], dtype=np.int32), 0, 1, MPI.INT, 0, 9)
                return None
            buf = np.zeros(1, dtype=np.int32)
            args = (buf, 0, 1, MPI.INT, 5, 0) + \
                ((buf, 0, 1, MPI.INT) if name == "Sendrecv" else ()) + (1, 9)
            try:
                getattr(w, name)(*args)
                return "no error"
            except MPIException as exc:
                code = exc.Get_error_class()
            w.Barrier()
            got = []
            while not got or got == [42]:   # 43 first: 42 was swallowed
                w.Recv(buf, 0, 1, MPI.INT, 1, 9)
                got.append(int(buf[0]))
            return code, got

        out = run(2, body, transport=mode_transport, args=(call,))
        assert out[0] == (MPI.ERR_RANK, [42, 43])

    @pytest.mark.parametrize("dtype", ["INT", "OBJECT"])
    def test_sendrecv_replace_refuses_any_tag_to_send(self, mode_transport,
                                                      dtype):
        """``ANY_TAG`` is a receive wildcard, never a send tag: the send
        half of ``Sendrecv_replace`` is checked like ``Send``'s, for a
        dense buffer as for ``MPI.OBJECT``."""
        def body(name):
            w = MPI.COMM_WORLD
            w.Errhandler_set(MPI.ERRORS_RETURN)
            buf = np.zeros(1, dtype=object if name == "OBJECT" else np.int32)
            try:
                w.Sendrecv_replace(buf, 0, 1, getattr(MPI, name),
                                   1 - w.Rank(), MPI.ANY_TAG,
                                   MPI.PROC_NULL, 0)
                return "no error"
            except MPIException as exc:
                return exc.Get_error_class()

        out = run(2, body, transport=mode_transport, args=(dtype,))
        assert out == [MPI.ERR_TAG] * 2

    def test_probe_then_sized_recv(self, mode_transport):
        def body():
            w = MPI.COMM_WORLD
            if w.Rank() == 0:
                w.Send(np.arange(13, dtype=np.int32), 0, 13, MPI.INT, 1, 4)
                return None
            st = w.Probe(0, MPI.ANY_TAG)
            n = st.Get_count(MPI.INT)
            buf = np.zeros(n, dtype=np.int32)
            w.Recv(buf, 0, n, MPI.INT, st.source, st.tag)
            return n, list(buf)

        n, data = run(2, body, transport=mode_transport)[1]
        assert n == 13 and data == list(range(13))

    def test_iprobe_none_when_empty(self, mode_transport):
        def body():
            w = MPI.COMM_WORLD
            got = w.Iprobe(MPI.ANY_SOURCE, MPI.ANY_TAG)
            w.Barrier()
            return got is None

        assert all(run(2, body, transport=mode_transport))


class TestPersistent:
    def test_persistent_send_recv_cycles(self, mode_transport):
        def body():
            w = MPI.COMM_WORLD
            n_iters = 4
            if w.Rank() == 0:
                buf = np.zeros(2, dtype=np.int32)
                req = w.Send_init(buf, 0, 2, MPI.INT, 1, 0)
                total = []
                for i in range(n_iters):
                    buf[:] = [i, i * 10]
                    req.Start()
                    req.Wait()
                    total.append(i)
                return total
            buf = np.zeros(2, dtype=np.int32)
            req = w.Recv_init(buf, 0, 2, MPI.INT, 0, 0)
            got = []
            for _ in range(n_iters):
                req.Start()
                req.Wait()
                got.append(list(buf))
            return got

        out = run(2, body, transport=mode_transport)
        assert out[1] == [[0, 0], [1, 10], [2, 20], [3, 30]]

    def test_startall(self, mode_transport):
        from repro.mpijava import Prequest, Request

        def body():
            w = MPI.COMM_WORLD
            if w.Rank() == 0:
                b1 = np.array([1], dtype=np.int32)
                b2 = np.array([2], dtype=np.int32)
                reqs = [w.Send_init(b1, 0, 1, MPI.INT, 1, 1),
                        w.Send_init(b2, 0, 1, MPI.INT, 1, 2)]
                Prequest.Startall(reqs)
                Request.Waitall(reqs)
                return None
            r1 = np.zeros(1, dtype=np.int32)
            r2 = np.zeros(1, dtype=np.int32)
            reqs = [w.Recv_init(r1, 0, 1, MPI.INT, 0, 1),
                    w.Recv_init(r2, 0, 1, MPI.INT, 0, 2)]
            Prequest.Startall(reqs)
            Request.Waitall(reqs)
            return [int(r1[0]), int(r2[0])]

        assert run(2, body, transport=mode_transport)[1] == [1, 2]

    def test_start_while_active_is_error(self, mode_transport):
        def body():
            w = MPI.COMM_WORLD
            w.Errhandler_set(MPI.ERRORS_RETURN)
            if w.Rank() == 0:
                req = w.Recv_init(np.zeros(1, dtype=np.int32), 0, 1,
                                  MPI.INT, 1, 0)
                req.Start()
                try:
                    req.Start()
                    out = "no error"
                except MPIException as exc:
                    out = exc.Get_error_class()
                # satisfy the pending receive so Finalize's barrier works
                w.Send(np.zeros(1, dtype=np.int32), 0, 1, MPI.INT, 1, 5)
                req.Cancel()
                req.Wait()
                return out
            buf = np.zeros(1, dtype=np.int32)
            w.Recv(buf, 0, 1, MPI.INT, 0, 5)
            return None

        assert run(2, body, transport=mode_transport)[0] == \
            MPI.ERR_PENDING
