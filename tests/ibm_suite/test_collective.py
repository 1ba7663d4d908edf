"""IBM-suite category: collective operations."""

import numpy as np
import pytest

from repro.mpijava import MPI, MPIException, Op
from tests.conftest import run


class TestBarrierBcast:
    def test_barrier_all_ranks(self, mode_transport):
        def body():
            w = MPI.COMM_WORLD
            for _ in range(3):
                w.Barrier()
            return w.Rank()

        assert run(4, body, transport=mode_transport) == [0, 1, 2, 3]

    @pytest.mark.parametrize("root", [0, 1, 3])
    def test_bcast_from_any_root(self, mode_transport, root):
        def body(r):
            w = MPI.COMM_WORLD
            buf = np.full(6, w.Rank(), dtype=np.int32)
            w.Bcast(buf, 0, 6, MPI.INT, r)
            return list(buf)

        out = run(4, body, transport=mode_transport, args=(root,))
        assert all(row == [root] * 6 for row in out)

    def test_bcast_partial_buffer(self, mode_transport):
        def body():
            w = MPI.COMM_WORLD
            buf = np.full(10, w.Rank(), dtype=np.int32)
            w.Bcast(buf, 2, 4, MPI.INT, 0)
            return list(buf)

        out = run(2, body, transport=mode_transport)
        assert out[1] == [1, 1, 0, 0, 0, 0, 1, 1, 1, 1]

    def test_bcast_objects(self, mode_transport):
        def body():
            w = MPI.COMM_WORLD
            buf = [{"answer": 42}] if w.Rank() == 0 else [None]
            w.Bcast(buf, 0, 1, MPI.OBJECT, 0)
            return buf[0]

        out = run(3, body, transport=mode_transport)
        assert all(o == {"answer": 42} for o in out)


class TestGatherScatter:
    def test_gather(self, mode_transport):
        def body():
            w = MPI.COMM_WORLD
            me, size = w.Rank(), w.Size()
            sb = np.full(2, me, dtype=np.int32)
            rb = np.zeros(2 * size, dtype=np.int32) if me == 0 else \
                np.zeros(1, dtype=np.int32)
            w.Gather(sb, 0, 2, MPI.INT, rb, 0, 2, MPI.INT, 0)
            return list(rb) if me == 0 else None

        assert run(4, body, transport=mode_transport)[0] == \
            [0, 0, 1, 1, 2, 2, 3, 3]

    def test_gatherv_varying_counts(self, mode_transport):
        def body():
            w = MPI.COMM_WORLD
            me, size = w.Rank(), w.Size()
            counts = [r + 1 for r in range(size)]
            displs = [sum(counts[:r]) for r in range(size)]
            sb = np.full(me + 1, me, dtype=np.int32)
            total = sum(counts)
            rb = np.full(total, -1, dtype=np.int32) if me == 0 else \
                np.zeros(1, dtype=np.int32)
            w.Gatherv(sb, 0, me + 1, MPI.INT, rb, 0, counts, displs,
                      MPI.INT, 0)
            return list(rb) if me == 0 else None

        assert run(3, body, transport=mode_transport)[0] == \
            [0, 1, 1, 2, 2, 2]

    def test_scatter(self, mode_transport):
        def body():
            w = MPI.COMM_WORLD
            me, size = w.Rank(), w.Size()
            sb = np.arange(size * 3, dtype=np.float64) if me == 1 else \
                np.zeros(1, dtype=np.float64)
            rb = np.zeros(3, dtype=np.float64)
            w.Scatter(sb, 0, 3, MPI.DOUBLE, rb, 0, 3, MPI.DOUBLE, 1)
            return list(rb)

        out = run(3, body, transport=mode_transport)
        assert out == [[0, 1, 2], [3, 4, 5], [6, 7, 8]]

    def test_scatterv(self, mode_transport):
        def body():
            w = MPI.COMM_WORLD
            me, size = w.Rank(), w.Size()
            counts = [1, 2, 3][:size]
            displs = [0, 4, 8][:size]
            sb = np.arange(12, dtype=np.int32) if me == 0 else \
                np.zeros(1, dtype=np.int32)
            rb = np.zeros(counts[me], dtype=np.int32)
            w.Scatterv(sb, 0, counts, displs, MPI.INT, rb, 0, counts[me],
                       MPI.INT, 0)
            return list(rb)

        out = run(3, body, transport=mode_transport)
        assert out == [[0], [4, 5], [8, 9, 10]]

    def test_gather_objects(self, mode_transport):
        def body():
            w = MPI.COMM_WORLD
            me = w.Rank()
            sb = [f"rank-{me}"]
            rb = [None] * w.Size() if me == 0 else [None]
            w.Gather(sb, 0, 1, MPI.OBJECT, rb, 0, 1, MPI.OBJECT, 0)
            return rb if me == 0 else None

        assert run(3, body, transport=mode_transport)[0] == \
            ["rank-0", "rank-1", "rank-2"]


class TestAllVariants:
    @pytest.mark.parametrize("algorithm", ["gather_bcast", "ring"])
    def test_allgather_algorithms(self, mode_transport, algorithm):
        from repro.runtime.collective import algorithm_overrides

        def body(alg):
            with algorithm_overrides(allgather=alg):
                w = MPI.COMM_WORLD
                me, size = w.Rank(), w.Size()
                sb = np.full(2, me * 10, dtype=np.int32)
                rb = np.zeros(2 * size, dtype=np.int32)
                w.Allgather(sb, 0, 2, MPI.INT, rb, 0, 2, MPI.INT)
                return list(rb)

        out = run(4, body, transport=mode_transport, args=(algorithm,))
        expected = [0, 0, 10, 10, 20, 20, 30, 30]
        assert all(row == expected for row in out)

    def test_allgatherv(self, mode_transport):
        def body():
            w = MPI.COMM_WORLD
            me, size = w.Rank(), w.Size()
            counts = [r + 1 for r in range(size)]
            displs = [sum(counts[:r]) for r in range(size)]
            sb = np.full(me + 1, me, dtype=np.int32)
            rb = np.zeros(sum(counts), dtype=np.int32)
            w.Allgatherv(sb, 0, me + 1, MPI.INT, rb, 0, counts, displs,
                         MPI.INT)
            return list(rb)

        out = run(3, body, transport=mode_transport)
        assert all(row == [0, 1, 1, 2, 2, 2] for row in out)

    def test_alltoall(self, mode_transport):
        def body():
            w = MPI.COMM_WORLD
            me, size = w.Rank(), w.Size()
            sb = np.array([me * 100 + d for d in range(size)],
                          dtype=np.int32)
            rb = np.zeros(size, dtype=np.int32)
            w.Alltoall(sb, 0, 1, MPI.INT, rb, 0, 1, MPI.INT)
            return list(rb)

        out = run(4, body, transport=mode_transport)
        for me, row in enumerate(out):
            assert row == [s * 100 + me for s in range(4)]

    def test_alltoallv(self, mode_transport):
        def body():
            w = MPI.COMM_WORLD
            me, size = w.Rank(), w.Size()
            # rank r sends r+1 items to everyone
            scounts = [me + 1] * size
            sdispls = [(me + 1) * d for d in range(size)]
            sb = np.full((me + 1) * size, me, dtype=np.int32)
            rcounts = [s + 1 for s in range(size)]
            rdispls = [sum(rcounts[:s]) for s in range(size)]
            rb = np.full(sum(rcounts), -1, dtype=np.int32)
            w.Alltoallv(sb, 0, scounts, sdispls, MPI.INT,
                        rb, 0, rcounts, rdispls, MPI.INT)
            return list(rb)

        out = run(3, body, transport=mode_transport)
        assert all(row == [0, 1, 1, 2, 2, 2] for row in out)


class TestReductions:
    @pytest.mark.parametrize("opname,expected", [
        ("SUM", 0 + 1 + 2 + 3), ("PROD", 0), ("MAX", 3), ("MIN", 0),
    ])
    def test_reduce_arithmetic(self, mode_transport, opname, expected):
        def body(name, exp):
            w = MPI.COMM_WORLD
            me = w.Rank()
            sb = np.array([me], dtype=np.int64)
            rb = np.zeros(1, dtype=np.int64)
            w.Reduce(sb, 0, rb, 0, 1, MPI.LONG, getattr(MPI, name), 0)
            return int(rb[0]) if me == 0 else None

        out = run(4, body, transport=mode_transport,
                  args=(opname, expected))
        assert out[0] == expected

    def test_reduce_vector_elementwise(self, mode_transport):
        def body():
            w = MPI.COMM_WORLD
            me = w.Rank()
            sb = np.array([me, me * 2, me * 3], dtype=np.float64)
            rb = np.zeros(3)
            w.Reduce(sb, 0, rb, 0, 3, MPI.DOUBLE, MPI.SUM, 0)
            return list(rb) if me == 0 else None

        assert run(3, body, transport=mode_transport)[0] == \
            [3.0, 6.0, 9.0]

    def test_allreduce_logical(self, mode_transport):
        def body():
            w = MPI.COMM_WORLD
            me = w.Rank()
            sb = np.array([me < 3, me == 0], dtype=np.bool_)
            rb = np.zeros(2, dtype=np.bool_)
            w.Allreduce(sb, 0, rb, 0, 2, MPI.BOOLEAN, MPI.LAND)
            return list(rb)

        out = run(4, body, transport=mode_transport)
        assert all(row == [False, False] for row in out)

    def test_allreduce_band(self, mode_transport):
        def body():
            w = MPI.COMM_WORLD
            sb = np.array([0b1111 ^ (1 << w.Rank())], dtype=np.int32)
            rb = np.zeros(1, dtype=np.int32)
            w.Allreduce(sb, 0, rb, 0, 1, MPI.INT, MPI.BAND)
            return int(rb[0])

        assert run(4, body, transport=mode_transport) == [0, 0, 0, 0]

    @pytest.mark.parametrize("algorithm",
                             ["recursive_doubling", "reduce_bcast"])
    def test_allreduce_algorithms_agree(self, mode_transport, algorithm):
        from repro.runtime.collective import algorithm_overrides

        def body(alg):
            with algorithm_overrides(allreduce=alg):
                w = MPI.COMM_WORLD
                sb = np.array([w.Rank() + 1.0, w.Rank() * 2.0])
                rb = np.zeros(2)
                w.Allreduce(sb, 0, rb, 0, 2, MPI.DOUBLE, MPI.SUM)
                return list(rb)

        out = run(4, body, transport=mode_transport, args=(algorithm,))
        assert all(row == [10.0, 12.0] for row in out)

    def test_maxloc(self, mode_transport):
        def body():
            w = MPI.COMM_WORLD
            me = w.Rank()
            # pairs: (value, index): value peaks at rank 2
            value = float(10 - abs(me - 2))
            sb = np.array([value, me], dtype=np.float64)
            rb = np.zeros(2)
            w.Allreduce(sb, 0, rb, 0, 1, MPI.DOUBLE2, MPI.MAXLOC)
            return (rb[0], int(rb[1]))

        out = run(4, body, transport=mode_transport)
        assert all(row == (10.0, 2) for row in out)

    def test_minloc_tie_smallest_index(self, mode_transport):
        def body():
            w = MPI.COMM_WORLD
            sb = np.array([5, w.Rank()], dtype=np.int32)
            rb = np.zeros(2, dtype=np.int32)
            w.Allreduce(sb, 0, rb, 0, 1, MPI.INT2, MPI.MINLOC)
            return (int(rb[0]), int(rb[1]))

        assert all(row == (5, 0)
                   for row in run(3, body, transport=mode_transport))

    def test_user_op_noncommutative(self, mode_transport):
        # MPI requires ops to be *associative*; 2x2 matrix multiplication
        # is associative but non-commutative, so the result must be the
        # rank-ordered product M0 @ M1 @ M2 @ M3.
        def body():
            def matmul(invec, inoutvec, count, datatype):
                a = invec.reshape(2, 2)
                b = inoutvec.reshape(2, 2)
                inoutvec[:] = (a @ b).ravel()

            op = Op.Create(matmul, commute=False)
            w = MPI.COMM_WORLD
            me = w.Rank()
            m = np.array([1, me + 1, 0, 1], dtype=np.int64)  # upper shear
            if me == 3:
                m = np.array([0, 1, 1, 0], dtype=np.int64)   # swap
            rb = np.zeros(4, dtype=np.int64)
            w.Reduce(m, 0, rb, 0, 4, MPI.LONG, op, 0)
            op.Free()
            return list(rb) if me == 0 else None

        expected = (np.array([[1, 1], [0, 1]]) @ np.array([[1, 2], [0, 1]])
                    @ np.array([[1, 3], [0, 1]])
                    @ np.array([[0, 1], [1, 0]]))
        assert run(4, body, transport=mode_transport)[0] == \
            list(expected.ravel())

    def test_reduce_objects_with_sum(self, mode_transport):
        def body():
            w = MPI.COMM_WORLD
            sb = [w.Rank() + 1, [w.Rank()]]
            rb = [None, None]
            w.Reduce(sb, 0, rb, 0, 2, MPI.OBJECT, MPI.SUM, 0)
            if w.Rank() != 0:
                return None
            # SUM is commutative: element order within the combined list
            # is implementation-defined, the multiset is not
            return rb[0], sorted(rb[1])

        out = run(3, body, transport=mode_transport)[0]
        assert out == (6, [0, 1, 2])


class TestScanReduceScatter:
    def test_scan_inclusive_prefix(self, mode_transport):
        def body():
            w = MPI.COMM_WORLD
            sb = np.array([w.Rank() + 1], dtype=np.int32)
            rb = np.zeros(1, dtype=np.int32)
            w.Scan(sb, 0, rb, 0, 1, MPI.INT, MPI.SUM)
            return int(rb[0])

        assert run(4, body, transport=mode_transport) == [1, 3, 6, 10]

    def test_scan_noncommutative_order(self, mode_transport):
        def body():
            def digits(invec, inoutvec, count, datatype):
                inoutvec[:] = invec * 10 + inoutvec

            op = Op.Create(digits, commute=False)
            w = MPI.COMM_WORLD
            sb = np.array([w.Rank() + 1], dtype=np.int64)
            rb = np.zeros(1, dtype=np.int64)
            w.Scan(sb, 0, rb, 0, 1, MPI.LONG, op)
            return int(rb[0])

        assert run(3, body, transport=mode_transport) == [1, 12, 123]

    def test_reduce_scatter(self, mode_transport):
        def body():
            w = MPI.COMM_WORLD
            me, size = w.Rank(), w.Size()
            counts = [2, 1, 1][:size]
            total = sum(counts)
            sb = np.arange(total, dtype=np.int32) + me
            rb = np.zeros(counts[me], dtype=np.int32)
            w.Reduce_scatter(sb, 0, rb, 0, counts, MPI.INT, MPI.SUM)
            return list(rb)

        out = run(3, body, transport=mode_transport)
        # sum over ranks of (i + me) = 3i + 3 at element i
        assert out == [[3, 6], [9], [12]]


class TestAlgorithms:
    @pytest.mark.parametrize("alg", ["binomial", "linear"])
    def test_bcast_algorithms_agree(self, mode_transport, alg):
        def body(a):
            w = MPI.COMM_WORLD
            from repro.runtime import nbc
            from repro.runtime.collective.bcast import plan_bcast
            buf = np.full(4, w.Rank(), dtype=np.int32)
            from repro.jni.handles import tables_for
            from repro.runtime.collective import algorithm_overrides
            from repro.runtime.engine import current_runtime
            comm = tables_for(current_runtime()).comms.lookup(1)
            from repro.datatypes import primitives as P
            with algorithm_overrides(bcast=a):
                nbc.run(comm, *plan_bcast(comm, buf, 0, 4, P.INT, root=2))
            return list(buf)

        out = run(5, body, transport=mode_transport, args=(alg,))
        assert all(row == [2, 2, 2, 2] for row in out)

    @pytest.mark.parametrize("alg", ["binomial", "linear"])
    def test_reduce_algorithms_agree(self, mode_transport, alg):
        def body(a):
            from repro.jni.handles import tables_for
            from repro.runtime.engine import current_runtime
            from repro.runtime import nbc
            from repro.runtime.collective import algorithm_overrides
            from repro.runtime.collective.reduce import plan_reduce
            from repro.datatypes import primitives as P
            from repro.runtime import reduce_ops as O
            w = MPI.COMM_WORLD
            comm = tables_for(current_runtime()).comms.lookup(1)
            sb = np.array([w.Rank() + 1], dtype=np.int64)
            rb = np.zeros(1, dtype=np.int64)
            with algorithm_overrides(reduce=a):
                nbc.run(comm, *plan_reduce(comm, sb, 0, rb, 0, 1, P.LONG,
                                           O.SUM, root=0))
            return int(rb[0]) if w.Rank() == 0 else None

        out = run(5, body, transport=mode_transport, args=(alg,))
        assert out[0] == 15

    @pytest.mark.parametrize("alg", ["dissemination", "linear"])
    def test_barrier_algorithms(self, mode_transport, alg):
        def body(a):
            from repro.jni.handles import tables_for
            from repro.runtime.engine import current_runtime
            from repro.runtime import nbc
            from repro.runtime.collective import algorithm_overrides
            from repro.runtime.collective.barrier import plan_barrier
            comm = tables_for(current_runtime()).comms.lookup(1)
            with algorithm_overrides(barrier=a):
                for _ in range(2):
                    nbc.run(comm, *plan_barrier(comm))
            return True

        assert all(run(5, body, transport=mode_transport, args=(alg,)))


class TestOwnershipRule:
    """A dense commutative reduction accumulates in the result window
    and every contribution lands where its receive says; objects and
    rank-ordered folds travel in boxes
    (:mod:`repro.runtime.collective.common`)."""

    ALGORITHMS = ("recursive_doubling", "reduce_bcast")

    @staticmethod
    def _check_aliased_allreduce(nprocs, transport, algorithm, shift):
        n = 40

        def body(alg, d):
            from repro.runtime.collective import algorithm_overrides
            w = MPI.COMM_WORLD
            buf = np.zeros(n + d)
            buf[:n] = np.arange(n) * (w.Rank() + 1.0)
            with algorithm_overrides(allreduce=alg):
                w.Allreduce(buf, 0, buf, d, n, MPI.DOUBLE, MPI.SUM)
            return buf[d:d + n].tolist()

        out = run(nprocs, body, transport=transport, args=(algorithm, shift))
        total = nprocs * (nprocs + 1) / 2
        assert all(row == (np.arange(n) * total).tolist() for row in out)

    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    @pytest.mark.parametrize("shift", [0, 3])
    def test_sendbuf_is_recvbuf(self, mode_transport, algorithm, shift):
        """The same window, and windows that overlap: the send window
        is copied in as if through a temporary."""
        self._check_aliased_allreduce(4, mode_transport, algorithm, shift)

    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    @pytest.mark.parametrize("shift", [0, 3])
    def test_sendbuf_is_recvbuf_on_three_ranks(self, mode_transport,
                                               algorithm, shift):
        """A group that is not a power of two: recursive doubling falls
        back to reduce + bcast, and the aliased windows still come out
        exact."""
        self._check_aliased_allreduce(3, mode_transport, algorithm, shift)

    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    def test_vector_receive_window_keeps_its_gaps(self, mode_transport,
                                                  algorithm):
        def body(alg):
            from repro.runtime.collective import algorithm_overrides
            w = MPI.COMM_WORLD
            vec = MPI.DOUBLE.Vector(8, 1, 2).Commit()
            sb = np.full(16, -7.0)
            sb[::2] = np.arange(8) + w.Rank()
            rb = np.full(16, -1.0)
            with algorithm_overrides(allreduce=alg):
                w.Allreduce(sb, 0, rb, 0, 1, vec, MPI.SUM)
            return rb[::2].tolist(), rb[1::2].tolist(), sb[1::2].tolist()

        for got, gaps, sent_gaps in run(4, body, transport=mode_transport,
                                        args=(algorithm,)):
            assert got == (np.arange(8) * 4.0 + 6).tolist()
            assert gaps == [-1.0] * 8 and sent_gaps == [-7.0] * 8

    def test_rank_ordered_folds_still_in_rank_order(self, mode_transport):
        """MINLOC pairs, a non-commutative user op and ``MPI.OBJECT``."""
        def body():
            def concat(invec, inoutvec, count, datatype):
                # digits appended base 10: order-revealing, associative
                for i in range(len(inoutvec)):
                    inoutvec[i] = invec[i] * 10 + inoutvec[i] \
                        if inoutvec[i] < 10 else \
                        invec[i] * 10 ** len(str(inoutvec[i])) + inoutvec[i]
            w = MPI.COMM_WORLD
            me = w.Rank()
            op = Op.Create(concat, commute=False)
            digits = np.array([me + 1, me + 5], dtype=np.int64)
            ordered = np.zeros(2, dtype=np.int64)
            w.Allreduce(digits, 0, ordered, 0, 2, MPI.LONG, op)
            op.Free()
            pair = np.array([3, me], dtype=np.int32)
            loc = np.zeros(2, dtype=np.int32)
            w.Allreduce(pair, 0, loc, 0, 1, MPI.INT2, MPI.MINLOC)
            objs = [None]
            w.Allreduce([(me,)], 0, objs, 0, 1, MPI.OBJECT, MPI.SUM)
            return ordered.tolist(), loc.tolist(), sorted(objs[0])

        for ordered, loc, objs in run(4, body, transport=mode_transport):
            assert ordered == [1234, 5678]
            assert loc == [3, 0]
            assert objs == [0, 1, 2, 3]

    @pytest.mark.parametrize("nonblocking", [False, True],
                             ids=["blocking", "iallreduce"])
    def test_user_op_raising_in_round_two(self, mode_transport,
                                          nonblocking):
        """The op's own exception surfaces unchanged — from the blocking
        call, through ``Wait`` from the nonblocking one: the cause of
        the binding's ``ERR_OTHER`` under ``ERRORS_RETURN`` — and the
        communicator is still usable."""
        def body(nb):
            calls = []

            def flaky(invec, inoutvec, count, datatype):
                calls.append(1)
                if len(calls) == 2:
                    raise ZeroDivisionError("round two")
                inoutvec += invec

            w = MPI.COMM_WORLD
            w.Errhandler_set(MPI.ERRORS_RETURN)
            op = Op.Create(flaky, commute=True)
            sb, rb = np.ones(4), np.zeros(4)
            seen = None
            try:
                if nb:
                    w.Iallreduce(sb, 0, rb, 0, 4, MPI.DOUBLE, op).Wait()
                else:
                    w.Allreduce(sb, 0, rb, 0, 4, MPI.DOUBLE, op)
            except MPIException as exc:
                seen = type(exc.__cause__).__name__, str(exc.__cause__)
            w.Allreduce(sb, 0, rb, 0, 4, MPI.DOUBLE, MPI.SUM)
            op.Free()
            return seen, rb.tolist()

        out = run(4, body, transport=mode_transport, args=(nonblocking,))
        assert out == [(("ZeroDivisionError", "round two"), [4.0] * 4)] * 4

    @pytest.mark.parametrize("what", ["allreduce", "reduce_bcast",
                                      "alltoall"])
    def test_a_late_peer_never_sees_a_senders_later_writes(self, what):
        """The in-process aliasing hazard: rank 2 arrives late at every
        call, so what its peers send it — views of their accumulators
        and windows, handed over by reference — goes unexpected while
        the senders fold on, return, and scribble over both buffers.
        Every result exact."""
        def body(what):
            import time
            from repro.runtime.collective import algorithm_overrides
            w = MPI.COMM_WORLD
            me, p = w.Rank(), w.Size()
            n = 16 * p
            sb, rb = np.zeros(n), np.zeros(n)
            bad = 0
            alg = "reduce_bcast" if what == "reduce_bcast" \
                else "recursive_doubling"
            with algorithm_overrides(allreduce=alg):
                for i in range(200 if what == "allreduce" else 60):
                    if me == 2:
                        time.sleep(0.005)
                    if what == "alltoall":
                        sb[:] = np.repeat(np.arange(p) + me * p + i, 16)
                        w.Alltoall(sb, 0, 16, MPI.DOUBLE,
                                   rb, 0, 16, MPI.DOUBLE)
                        want = np.repeat(np.arange(p) * p + me + i, 16)
                    else:
                        sb[:] = np.arange(n) + i * (me + 1)
                        w.Allreduce(sb, 0, rb, 0, n, MPI.DOUBLE, MPI.SUM)
                        want = np.arange(n) * 4.0 + 10 * i
                    bad += not np.array_equal(rb, want)
                    sb[:] = rb[:] = -1.0
            return bad

        assert run(4, body, transport="inproc", args=(what,),
                   timeout=120.0) == [0] * 4

    def test_alltoall_from_a_read_only_send_window(self, mode_transport):
        def body():
            w = MPI.COMM_WORLD
            me, p = w.Rank(), w.Size()
            sb = np.repeat(np.arange(p) + 10.0 * me, 600)
            keep = sb.copy()
            sb.flags.writeable = False
            rb = np.zeros(600 * p)
            w.Alltoall(sb, 0, 600, MPI.DOUBLE, rb, 0, 600, MPI.DOUBLE)
            return rb[::600].tolist(), bool(np.array_equal(sb, keep))

        out = run(4, body, transport=mode_transport)
        assert out == [([me + 10.0 * r for r in range(4)], True)
                       for me in range(4)]

    @pytest.mark.parametrize("call", ["blocking", "nonblocking"])
    def test_a_failed_collective_lets_go_of_the_window(self, call):
        """Rank 0's ``Alltoall`` has rank 3's block, is waiting for late
        rank 2's, and rank 1 — not this round's peer — dies: the call
        ends with ``ERR_PROC_FAILED`` and its receive from rank 2 stays
        posted (a live peer's message must not sit unexpected until
        ``Finalize``).  But that receive names rank 0's own window, and
        the window is the caller's again once the call has raised: rank
        2's block, arriving after all, is matched and written nowhere."""
        import threading
        import time
        from repro.datatypes.primitives import DOUBLE
        from repro.errors import ERR_PROC_FAILED
        from repro.runtime import nbc
        from repro.runtime.collective.alltoall import plan_alltoall
        from repro.runtime.engine import RankRuntime, Universe
        universe = Universe(4, "inproc")
        try:
            comms = [RankRuntime(universe, r).comm_world for r in range(4)]
            n = 8
            sb, rb = np.arange(4.0 * n), np.full(4 * n, -1.0)
            args = (comms[0], sb, 0, n, DOUBLE, rb, 0, n, DOUBLE)
            tags = [c.next_coll_tag() for c in comms[1:]]   # as rank 0's
            assert len(set(tags)) == 1
            comms[3].coll_send(np.full(n, 3.0), n, False, 0, tags[0])
            raised = []
            if call == "blocking":
                def rank0():
                    try:
                        nbc.run(comms[0], *plan_alltoall(*args))
                    except MPIException as exc:
                        raised.append(exc.error_code)
                caller = threading.Thread(target=rank0)
                caller.start()
            else:
                req = nbc.launch(comms[0], *plan_alltoall(*args))
            mailbox = universe.mailboxes[0]
            deadline = time.monotonic() + 10.0
            while mailbox.pending_counts() != (0, 1):   # parked on rank 2
                assert time.monotonic() < deadline
                time.sleep(0.001)
            assert rb[3 * n:].tolist() == [3.0] * n
            universe.note_peer_failure(1, ConnectionError("gone"))
            if call == "blocking":
                caller.join(10.0)
            else:
                with pytest.raises(MPIException) as ei:
                    req.wait()
                raised.append(ei.value.error_code)
            assert raised == [ERR_PROC_FAILED]
            assert mailbox.pending_counts() == (0, 1)   # still posted
            rb[:] = -2.0                                # the caller's again
            comms[2].coll_send(np.full(n, 2.0), n, False, 0, tags[0])
            assert mailbox.pending_counts() == (0, 0)   # matched, and
            assert rb.tolist() == [-2.0] * (4 * n)      # written nowhere
        finally:
            universe.close()
