"""IBM-suite category: groups through the OO API."""


from repro.mpijava import MPI, Group
from tests.conftest import run


class TestGroupInquiry:
    def test_world_group(self, mode_transport):
        def body():
            g = MPI.COMM_WORLD.Group()
            return (g.Size(), g.Rank())

        out = run(3, body, transport=mode_transport)
        assert out == [(3, 0), (3, 1), (3, 2)]

    def test_group_rank_undefined_for_nonmember(self, mode_transport):
        def body():
            g = MPI.COMM_WORLD.Group().Incl([0])
            return g.Rank()

        out = run(3, body, transport=mode_transport)
        assert out == [0, MPI.UNDEFINED, MPI.UNDEFINED]


class TestGroupOps:
    def test_incl_excl(self, mode_transport):
        def body():
            g = MPI.COMM_WORLD.Group()
            a = g.Incl([3, 1])
            b = g.Excl([0, 2])
            return (a.Size(), b.Size(), Group.Compare(a, b))

        out = run(4, body, transport=mode_transport)[0]
        assert out == (2, 2, MPI.SIMILAR)  # {3,1} vs {1,3}

    def test_union_intersection_difference(self, mode_transport):
        def body():
            g = MPI.COMM_WORLD.Group()
            a = g.Incl([0, 1, 2])
            b = g.Incl([2, 3])
            u = Group.Union(a, b)
            i = Group.Intersection(a, b)
            d = Group.Difference(a, b)
            return (u.Size(), i.Size(), d.Size())

        assert run(4, body, transport=mode_transport)[0] == (4, 1, 2)

    def test_range_incl(self, mode_transport):
        def body():
            g = MPI.COMM_WORLD.Group()
            sub = g.Range_incl([(0, 5, 2)])
            return sub.Size()

        assert run(6, body, transport=mode_transport)[0] == 3

    def test_range_excl(self, mode_transport):
        def body():
            g = MPI.COMM_WORLD.Group()
            # drop ranks 0 2 4 and, walking down, 5: ranks 1 and 3 stay
            sub = g.Range_excl([(0, 4, 2), (5, 5, -1)])
            return (sub.Size(),
                    Group.Translate_ranks(sub, [0, 1], g),
                    sub.Rank())

        out = run(6, body, transport=mode_transport)
        assert out[1] == (2, [1, 3], 0) and out[3] == (2, [1, 3], 1)
        assert out[0][2] == MPI.UNDEFINED

    def test_translate_ranks(self, mode_transport):
        def body():
            g = MPI.COMM_WORLD.Group()
            rev = g.Incl(list(range(g.Size() - 1, -1, -1)))
            return Group.Translate_ranks(g, list(range(g.Size())), rev)

        assert run(4, body, transport=mode_transport)[0] == [3, 2, 1, 0]

    def test_compare_ident(self, mode_transport):
        def body():
            g1 = MPI.COMM_WORLD.Group()
            g2 = MPI.COMM_WORLD.Group()
            return Group.Compare(g1, g2)

        assert run(2, body, transport=mode_transport)[0] == MPI.IDENT

    def test_group_of_split_comm(self, mode_transport):
        def body():
            w = MPI.COMM_WORLD
            sub = w.Split(w.Rank() % 2, w.Rank())
            g = sub.Group()
            wg = w.Group()
            return Group.Translate_ranks(g, list(range(g.Size())), wg)

        out = run(4, body, transport=mode_transport)
        assert out[0] == [0, 2] and out[1] == [1, 3]

    def test_group_free(self, mode_transport):
        def body():
            g = MPI.COMM_WORLD.Group().Incl([0])
            g.Free()
            return True

        assert all(run(2, body, transport=mode_transport))
