"""IBM-suite category: virtual topologies through the OO API."""

import numpy as np

from repro.mpijava import MPI, Cartcomm
from tests.conftest import run


class TestCartcomm:
    def test_create_and_get(self, mode_transport):
        def body():
            w = MPI.COMM_WORLD
            cart = w.Create_cart([2, 2], [True, False], reorder=False)
            p = cart.Get()
            return (cart.Dim(), p.dims, p.periods, p.coords)

        out = run(4, body, transport=mode_transport)
        assert out[0] == (2, [2, 2], [True, False], [0, 0])
        assert out[3] == (2, [2, 2], [True, False], [1, 1])

    def test_topo_test(self, mode_transport):
        def body():
            w = MPI.COMM_WORLD
            cart = w.Create_cart([2], [False], False)
            return (w.Topo_test(), cart.Topo_test())

        assert run(2, body, transport=mode_transport)[0] == \
            (MPI.UNDEFINED, MPI.CART)

    def test_rank_coords_roundtrip(self, mode_transport):
        def body():
            w = MPI.COMM_WORLD
            cart = w.Create_cart([2, 3], [False, False], False)
            me = cart.Rank()
            coords = cart.Coords(me)
            return cart.Rank(coords) == me

        assert all(run(6, body, transport=mode_transport))

    def test_shift_and_exchange(self, mode_transport):
        def body():
            w = MPI.COMM_WORLD
            cart = w.Create_cart([4], [True], False)
            sp = cart.Shift(0, 1)
            me = cart.Rank()
            sb = np.array([me], dtype=np.int32)
            rb = np.zeros(1, dtype=np.int32)
            cart.Sendrecv(sb, 0, 1, MPI.INT, sp.rank_dest, 0,
                          rb, 0, 1, MPI.INT, sp.rank_source, 0)
            return int(rb[0])

        assert run(4, body, transport=mode_transport) == [3, 0, 1, 2]

    def test_shift_nonperiodic_edges(self, mode_transport):
        def body():
            w = MPI.COMM_WORLD
            cart = w.Create_cart([3], [False], False)
            sp = cart.Shift(0, 1)
            return (sp.rank_source, sp.rank_dest)

        out = run(3, body, transport=mode_transport)
        assert out == [(MPI.PROC_NULL, 1), (0, 2), (1, MPI.PROC_NULL)]

    def test_excess_ranks_get_null(self, mode_transport):
        def body():
            w = MPI.COMM_WORLD
            cart = w.Create_cart([2], [False], False)
            return cart is None

        assert run(3, body, transport=mode_transport) == \
            [False, False, True]

    def test_cart_sub_rows(self, mode_transport):
        def body():
            w = MPI.COMM_WORLD
            cart = w.Create_cart([2, 2], [False, False], False)
            row = cart.Sub([False, True])
            total = np.zeros(1, dtype=np.int32)
            mine = np.array([w.Rank()], dtype=np.int32)
            row.Allreduce(mine, 0, total, 0, 1, MPI.INT, MPI.SUM)
            return (row.Dim(), row.Size(), int(total[0]))

        out = run(4, body, transport=mode_transport)
        # rows {0,1} and {2,3}
        assert out == [(1, 2, 1), (1, 2, 1), (1, 2, 5), (1, 2, 5)]

    def test_create_dims_static(self, mode_transport):
        def body():
            return Cartcomm.Create_dims(12, [0, 0])

        assert run(2, body, transport=mode_transport)[0] == [4, 3]

    def test_cart_map(self, mode_transport):
        def body():
            w = MPI.COMM_WORLD
            cart = w.Create_cart([2, 2], [False, False], False)
            return cart.Map([2, 2], [False, False])

        assert run(4, body, transport=mode_transport) == [0, 1, 2, 3]


class TestGraphcomm:
    def test_create_and_get(self, mode_transport):
        def body():
            w = MPI.COMM_WORLD
            # line graph 0-1-2-3
            index = [1, 3, 5, 6]
            edges = [1, 0, 2, 1, 3, 2]
            g = w.Create_graph(index, edges, reorder=False)
            p = g.Get()
            return (p.nnodes, p.nedges, p.index, p.edges)

        out = run(4, body, transport=mode_transport)[0]
        assert out == (4, 6, [1, 3, 5, 6], [1, 0, 2, 1, 3, 2])

    def test_get_dims(self, mode_transport):
        def body():
            g = MPI.COMM_WORLD.Create_graph([1, 3, 5, 6],
                                            [1, 0, 2, 1, 3, 2], False)
            return g.Get_dims()

        assert run(4, body, transport=mode_transport) == [(4, 6)] * 4

    def test_neighbours(self, mode_transport):
        def body():
            w = MPI.COMM_WORLD
            index = [1, 3, 5, 6]
            edges = [1, 0, 2, 1, 3, 2]
            g = w.Create_graph(index, edges, False)
            me = g.Rank()
            return (g.Neighbours_count(me), g.Neighbours(me))

        out = run(4, body, transport=mode_transport)
        assert out[0] == (1, [1])
        assert out[1] == (2, [0, 2])
        assert out[3] == (1, [2])

    def test_neighbour_exchange(self, mode_transport):
        def body():
            w = MPI.COMM_WORLD
            index = [1, 3, 5, 6]
            edges = [1, 0, 2, 1, 3, 2]
            g = w.Create_graph(index, edges, False)
            me = g.Rank()
            nbrs = g.Neighbours(me)
            reqs = [g.Isend(np.array([me], dtype=np.int32), 0, 1, MPI.INT,
                            n, 0) for n in nbrs]
            got = []
            buf = np.zeros(1, dtype=np.int32)
            for n in nbrs:
                g.Recv(buf, 0, 1, MPI.INT, n, 0)
                got.append(int(buf[0]))
            from repro.mpijava import Request
            Request.Waitall(reqs)
            return sorted(got)

        out = run(4, body, transport=mode_transport)
        assert out == [[1], [0, 2], [1, 3], [2]]

    def test_graph_topo_test(self, mode_transport):
        def body():
            w = MPI.COMM_WORLD
            g = w.Create_graph([1, 2], [1, 0], False)
            return g.Topo_test() if g is not None else None

        assert run(2, body, transport=mode_transport)[0] == MPI.GRAPH
