"""IBM-suite category: datatypes in communication (derived types, CHAR,
pair types, MPI.OBJECT, Pack/Unpack through the OO API)."""

import numpy as np

from repro.mpijava import MPI, Datatype, MPIException
from tests.conftest import run


class TestDerivedInComm:
    def test_vector_send_strided_section(self, mode_transport):
        def body():
            w = MPI.COMM_WORLD
            col = MPI.INT.Vector(4, 1, 5).Commit()   # a 5-wide matrix column
            if w.Rank() == 0:
                mat = np.arange(20, dtype=np.int32)
                w.Send(mat, 2, 1, col, 1, 0)         # column 2
                col.Free()
                return None
            out = np.full(20, -1, dtype=np.int32)
            w.Recv(out, 0, 1, col, 0, 0)             # land as column 0
            col.Free()
            return [int(out[i * 5]) for i in range(4)]

        assert run(2, body, transport=mode_transport)[1] == [2, 7, 12, 17]

    def test_vector_to_contiguous(self, mode_transport):
        def body():
            w = MPI.COMM_WORLD
            if w.Rank() == 0:
                vec = MPI.DOUBLE.Vector(3, 1, 4).Commit()
                data = np.arange(12, dtype=np.float64)
                w.Send(data, 0, 1, vec, 1, 0)
                vec.Free()
                return None
            out = np.zeros(3, dtype=np.float64)
            st = w.Recv(out, 0, 3, MPI.DOUBLE, 0, 0)
            return (st.Get_count(MPI.DOUBLE), list(out))

        assert run(2, body, transport=mode_transport)[1] == \
            (3, [0.0, 4.0, 8.0])

    def test_indexed_roundtrip(self, mode_transport):
        def body():
            w = MPI.COMM_WORLD
            idx = MPI.INT.Indexed([2, 1], [0, 4]).Commit()
            if w.Rank() == 0:
                data = np.arange(8, dtype=np.int32)
                w.Ssend(data, 0, 1, idx, 1, 0)
                idx.Free()
                return None
            out = np.full(8, -1, dtype=np.int32)
            w.Recv(out, 0, 1, idx, 0, 0)
            idx.Free()
            return list(out)

        assert run(2, body, transport=mode_transport)[1] == \
            [0, 1, -1, -1, 4, -1, -1, -1]

    def test_struct_same_base(self, mode_transport):
        def body():
            w = MPI.COMM_WORLD
            st = Datatype.Struct([2, 1], [0, 12], [MPI.INT, MPI.INT])
            st.Commit()
            if w.Rank() == 0:
                data = np.arange(6, dtype=np.int32)
                w.Send(data, 0, 1, st, 1, 0)
                st.Free()
                return None
            out = np.full(6, -1, dtype=np.int32)
            w.Recv(out, 0, 1, st, 0, 0)
            st.Free()
            return list(out)

        assert run(2, body, transport=mode_transport)[1] == \
            [0, 1, -1, 3, -1, -1]

    def test_contiguous_of_vector_in_comm(self, mode_transport):
        def body():
            w = MPI.COMM_WORLD
            # vector(2,1,2) has extent 3 ((count-1)*stride + blocklength),
            # so two contiguous copies select elements 0,2 and 3,5
            v = MPI.INT.Vector(2, 1, 2)
            c = v.Contiguous(2).Commit()
            v.Free()
            if w.Rank() == 0:
                w.Send(np.arange(8, dtype=np.int32), 0, 1, c, 1, 0)
                c.Free()
                return None
            out = np.full(8, -1, dtype=np.int32)
            w.Recv(out, 0, 1, c, 0, 0)
            c.Free()
            return list(out)

        assert run(2, body, transport=mode_transport)[1] == \
            [0, -1, 2, 3, -1, 5, -1, -1]

    def test_uncommitted_type_rejected(self, mode_transport):
        def body2():
            w = MPI.COMM_WORLD
            w.Errhandler_set(MPI.ERRORS_RETURN)
            vec = MPI.INT.Vector(2, 1, 2)
            if w.Rank() == 0:
                try:
                    w.Send(np.zeros(4, dtype=np.int32), 0, 1, vec, 1, 0)
                    return "no error"
                except MPIException as exc:
                    vec.Free()
                    w.Send(np.zeros(1, dtype=np.int32), 0, 1, MPI.INT, 1,
                           0)
                    return exc.Get_error_class()
            vec.Free()
            buf = np.zeros(4, dtype=np.int32)
            w.Recv(buf, 0, 4, MPI.INT, 0, 0)
            return None

        assert run(2, body2, transport=mode_transport)[0] == MPI.ERR_TYPE

    def test_dtype_mismatch_rejected(self, mode_transport):
        def body():
            w = MPI.COMM_WORLD
            w.Errhandler_set(MPI.ERRORS_RETURN)
            if w.Rank() == 0:
                try:
                    w.Send(np.zeros(4, dtype=np.float32), 0, 4, MPI.INT,
                           1, 0)
                    return "no error"
                except MPIException as exc:
                    w.Send(np.zeros(1, dtype=np.int32), 0, 1, MPI.INT, 1,
                           0)
                    return exc.Get_error_class()
            buf = np.zeros(4, dtype=np.int32)
            w.Recv(buf, 0, 4, MPI.INT, 0, 0)
            return None

        assert run(2, body, transport=mode_transport)[0] == MPI.ERR_TYPE


class TestCharAndPairs:
    def test_char_string(self, mode_transport):
        def body():
            w = MPI.COMM_WORLD
            if w.Rank() == 0:
                msg = MPI.to_chars("Grüße, Welt")   # non-ASCII too
                w.Send(msg, 0, len(msg), MPI.CHAR, 1, 0)
                return None
            buf = MPI.new_chars(32)
            st = w.Recv(buf, 0, 32, MPI.CHAR, 0, 0)
            return MPI.from_chars(buf[:st.Get_count(MPI.CHAR)])

        assert run(2, body, transport=mode_transport)[1] == "Grüße, Welt"

    def test_pair_type_send(self, mode_transport):
        def body():
            w = MPI.COMM_WORLD
            if w.Rank() == 0:
                pairs = np.array([1.5, 0, 2.5, 1], dtype=np.float64)
                w.Send(pairs, 0, 2, MPI.DOUBLE2, 1, 0)
                return None
            buf = np.zeros(4, dtype=np.float64)
            st = w.Recv(buf, 0, 2, MPI.DOUBLE2, 0, 0)
            return (st.Get_count(MPI.DOUBLE2), list(buf))

        assert run(2, body, transport=mode_transport)[1] == \
            (2, [1.5, 0.0, 2.5, 1.0])


class TestObjects:
    def test_object_send_recv(self, mode_transport):
        def body():
            w = MPI.COMM_WORLD
            if w.Rank() == 0:
                payload = [{"nested": [1, 2, {"deep": "yes"}]},
                           ("tuple", 3.5)]
                w.Send(payload, 0, 2, MPI.OBJECT, 1, 0)
                return None
            box = [None, None]
            st = w.Recv(box, 0, 2, MPI.OBJECT, 0, 0)
            return (st.Get_count(MPI.OBJECT), box)

        n, box = run(2, body, transport=mode_transport)[1]
        assert n == 2
        assert box[0] == {"nested": [1, 2, {"deep": "yes"}]}
        assert box[1] == ("tuple", 3.5)

    def test_object_into_primitive_buffer_rejected(self, mode_transport):
        def body():
            w = MPI.COMM_WORLD
            w.Errhandler_set(MPI.ERRORS_RETURN)
            if w.Rank() == 0:
                w.Send(["obj"], 0, 1, MPI.OBJECT, 1, 0)
                return None
            buf = np.zeros(4, dtype=np.int32)
            try:
                w.Recv(buf, 0, 4, MPI.INT, 0, 0)
                return "no error"
            except MPIException as exc:
                return exc.Get_error_class()

        assert run(2, body, transport=mode_transport)[1] == MPI.ERR_TYPE

    def test_custom_class_roundtrip(self, mode_transport):
        def body():
            w = MPI.COMM_WORLD
            if w.Rank() == 0:
                w.Send([Point(3, 4)], 0, 1, MPI.OBJECT, 1, 0)
                return None
            box = [None]
            w.Recv(box, 0, 1, MPI.OBJECT, 0, 0)
            return (box[0].x, box[0].y, box[0].norm())

        assert run(2, body, transport=mode_transport)[1] == (3, 4, 5.0)


class Point:
    """Module-level so pickle can resolve it on 'another process'."""

    def __init__(self, x, y):
        self.x = x
        self.y = y

    def norm(self):
        return (self.x ** 2 + self.y ** 2) ** 0.5


class TestPackThroughComm:
    def test_pack_unpack_roundtrip(self, mode_transport):
        def body():
            w = MPI.COMM_WORLD
            ints = np.arange(4, dtype=np.int32)
            size = w.Pack_size(4, MPI.INT)
            packed = np.zeros(size, dtype=np.uint8)
            pos = w.Pack(ints, 0, 4, MPI.INT, packed, 0)
            if w.Rank() == 0:
                w.Send(packed, 0, pos, MPI.PACKED, 1, 0)
                return None
            inbox = np.zeros(size, dtype=np.uint8)
            w.Recv(inbox, 0, size, MPI.PACKED, 0, 0)
            out = np.zeros(4, dtype=np.int32)
            w.Unpack(inbox, 0, out, 0, 4, MPI.INT)
            return list(out)

        assert run(2, body, transport=mode_transport)[1] == [0, 1, 2, 3]

    def test_inquiry_through_oo_api(self, mode_transport):
        def body():
            vec = MPI.DOUBLE.Vector(3, 2, 4)
            out = (vec.Size(), vec.Extent(), vec.Lb(), vec.Ub(),
                   MPI.INT.Size(), MPI.INT.Extent())
            vec.Free()
            return out

        out = run(2, body, transport=mode_transport)[0]
        # 6 doubles = 48 bytes data; extent 10 doubles = 80 bytes
        assert out == (48, 80, 0, 80, 4, 4)

    def test_type_free_through_oo_api(self, mode_transport):
        def body():
            w = MPI.COMM_WORLD
            w.Errhandler_set(MPI.ERRORS_RETURN)
            t = MPI.INT.Contiguous(3).Commit()
            t.Free()
            try:
                t.Size()
                return "usable after free"
            except MPIException as exc:
                return exc.Get_error_class()

        assert run(2, body, transport=mode_transport)[0] == MPI.ERR_ARG


class TestPredefinedSurviveFree:
    """``MPI.INT.Free()`` used to succeed and mark the process-global
    primitive freed: every other rank-thread of the job, and every later
    job in the process, then failed with "datatype MPI.INT was freed"."""

    def test_free_of_predefined_type_raises_and_changes_nothing(
            self, mode_transport):
        def free_it():
            w = MPI.COMM_WORLD
            try:
                MPI.INT.Free()
                code = None
            except MPIException as exc:
                code = exc.error_code
            # the other rank-thread shares the primitive: still usable
            buf = np.full(2, w.Rank(), dtype=np.int32)
            w.Sendrecv_replace(buf, 0, 2, MPI.INT, 1 - w.Rank(), 0,
                               1 - w.Rank(), 0)
            return code, list(buf)

        def second_job():
            w = MPI.COMM_WORLD
            buf = np.array([w.Rank() + 10], dtype=np.int32)
            out = np.zeros(1, dtype=np.int32)
            w.Allreduce(buf, 0, out, 0, 1, MPI.INT, MPI.SUM)
            return int(out[0])

        assert run(2, free_it, transport=mode_transport) == \
            [(MPI.ERR_TYPE, [1, 1]), (MPI.ERR_TYPE, [0, 0])]
        # a second mpirun in the same process still has MPI.INT
        assert run(2, second_job, transport=mode_transport) == [21, 21]

    def test_group_empty_survives_a_free_attempt(self, mode_transport):
        def body():
            from repro.jni import handles as H
            from repro.mpijava import Group
            empty = Group(H.GROUP_EMPTY)
            try:
                empty.Free()
                code = None
            except MPIException as exc:
                code = exc.error_code
            world = MPI.COMM_WORLD.Group()
            return (code, empty.Size(),
                    Group.Intersection(world, empty).Size())

        assert run(2, body, transport=mode_transport) == \
            [(MPI.ERR_GROUP, 0, 0)] * 2
