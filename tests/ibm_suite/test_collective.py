"""IBM-suite category: collective operations."""

import numpy as np
import pytest

from repro.mpijava import MPI, Op
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
            from repro.runtime.collective import bcast as bc
            buf = np.full(4, w.Rank(), dtype=np.int32)
            from repro.jni.handles import tables_for
            from repro.runtime.collective import algorithm_overrides
            from repro.runtime.engine import current_runtime
            comm = tables_for(current_runtime()).comms.lookup(1)
            from repro.datatypes import primitives as P
            with algorithm_overrides(bcast=a):
                bc.bcast(comm, buf, 0, 4, P.INT, root=2)
            return list(buf)

        out = run(5, body, transport=mode_transport, args=(alg,))
        assert all(row == [2, 2, 2, 2] for row in out)

    @pytest.mark.parametrize("alg", ["binomial", "linear"])
    def test_reduce_algorithms_agree(self, mode_transport, alg):
        def body(a):
            from repro.jni.handles import tables_for
            from repro.runtime.engine import current_runtime
            from repro.runtime.collective import algorithm_overrides, \
                reduce as rd
            from repro.datatypes import primitives as P
            from repro.runtime import reduce_ops as O
            w = MPI.COMM_WORLD
            comm = tables_for(current_runtime()).comms.lookup(1)
            sb = np.array([w.Rank() + 1], dtype=np.int64)
            rb = np.zeros(1, dtype=np.int64)
            with algorithm_overrides(reduce=a):
                rd.reduce(comm, sb, 0, rb, 0, 1, P.LONG, O.SUM, root=0)
            return int(rb[0]) if w.Rank() == 0 else None

        out = run(5, body, transport=mode_transport, args=(alg,))
        assert out[0] == 15

    @pytest.mark.parametrize("alg", ["dissemination", "linear"])
    def test_barrier_algorithms(self, mode_transport, alg):
        def body(a):
            from repro.jni.handles import tables_for
            from repro.runtime.engine import current_runtime
            from repro.runtime.collective import algorithm_overrides, \
                barrier as br
            comm = tables_for(current_runtime()).comms.lookup(1)
            with algorithm_overrides(barrier=a):
                for _ in range(2):
                    br.barrier(comm)
            return True

        assert all(run(5, body, transport=mode_transport, args=(alg,)))
