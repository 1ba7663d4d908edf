"""JNI-stub handle tables."""

import pytest

from repro import errors, mpirun
from repro.errors import MPIException
from repro.jni import handles as H
from repro.jni.handles import HandleSpace, tables_for
from repro.runtime.engine import RankRuntime, Universe


@pytest.fixture
def space():
    return HandleSpace("thing", {1: "one", 2: "two"})


class TestHandleSpace:
    def test_predefined_lookup(self, space):
        assert space.lookup(1) == "one"
        assert space.lookup(2) == "two"

    def test_unknown_handle_raises(self, space):
        with pytest.raises(MPIException):
            space.lookup(99)
        with pytest.raises(MPIException):
            space.lookup(None)

    def test_register_returns_stable_handle(self, space):
        obj = object()
        h1 = space.register(obj)
        h2 = space.register(obj)
        assert h1 == h2 >= 100
        assert space.lookup(h1) is obj

    def test_distinct_objects_distinct_handles(self, space):
        a, b = object(), object()
        assert space.register(a) != space.register(b)

    def test_release(self, space):
        obj = object()
        h = space.register(obj)
        space.release(h)
        with pytest.raises(MPIException):
            space.lookup(h)
        # releasing again is harmless
        space.release(h)

    def test_release_refuses_predefined_handles(self, space):
        with pytest.raises(MPIException) as exc:
            space.release(1)
        assert exc.value.error_code == errors.ERR_ARG
        assert space.lookup(1) == "one"

    def test_release_then_reregister_gets_new_handle(self, space):
        obj = object()
        h = space.register(obj)
        space.release(h)
        assert space.register(obj) != h

    def test_contains(self, space):
        assert space.contains(1)
        assert not space.contains(50)


class TestTables:
    def test_tables_per_rank(self):
        universe = Universe(2)
        try:
            rt0 = RankRuntime(universe, 0)
            rt1 = RankRuntime(universe, 1)
            t0, t1 = tables_for(rt0), tables_for(rt1)
            assert t0 is not t1
            assert tables_for(rt0) is t0  # cached
            # predefined handles resolve to each rank's own world comm
            assert t0.comms.lookup(H.COMM_WORLD) is rt0.comm_world
            assert t1.comms.lookup(H.COMM_WORLD) is rt1.comm_world
        finally:
            universe.close()

    def test_predefined_datatype_handles(self):
        universe = Universe(1)
        try:
            rt = RankRuntime(universe, 0)
            t = tables_for(rt)
            from repro.datatypes import primitives as P
            assert t.datatypes.lookup(H.DT_INT) is P.INT
            assert t.datatypes.lookup(H.DT_DOUBLE) is P.DOUBLE
            assert t.datatypes.lookup(H.DT_OBJECT) is P.OBJECT
        finally:
            universe.close()

    def test_predefined_op_handles(self):
        universe = Universe(1)
        try:
            rt = RankRuntime(universe, 0)
            t = tables_for(rt)
            from repro.runtime import reduce_ops as O
            assert t.ops.lookup(H.OP_SUM) is O.SUM
            assert t.ops.lookup(H.OP_MAXLOC) is O.MAXLOC
        finally:
            universe.close()

    def test_group_empty_predefined(self):
        universe = Universe(1)
        try:
            rt = RankRuntime(universe, 0)
            t = tables_for(rt)
            assert t.groups.lookup(H.GROUP_EMPTY).size == 0
        finally:
            universe.close()


class TestHandleValuesAreUniform:
    def test_same_handle_means_same_thing_on_every_rank(self):
        """Predefined handles are compile-time constants, identical on
        every rank — the property that lets MPI.COMM_WORLD be one shared
        proxy object."""
        def body():
            from repro.jni import capi
            capi.mpi_init([])
            out = (capi.mpi_comm_size(H.COMM_WORLD),
                   capi.mpi_type_size(H.DT_DOUBLE))
            capi.mpi_finalize()
            return out

        assert mpirun(3, body) == [(3, 8)] * 3


class TestFreeNeverMutatesPredefined:
    """``mpi_*_free`` of a predefined or unknown handle is an error, the
    same way for every handle space — never a silent mutation of an
    object every rank (and every later job in the process) shares."""

    @staticmethod
    def _free_errors():
        from repro.jni import capi
        capi.mpi_init([])
        out = {}
        for stub, handle in [
                (capi.mpi_type_free, H.DT_INT),
                (capi.mpi_group_free, H.GROUP_EMPTY),
                (capi.mpi_op_free, H.OP_SUM),
                (capi.mpi_comm_free, H.COMM_WORLD),
                (capi.mpi_request_free, H.REQUEST_NULL),
                (capi.mpi_type_free, 12345),
                (capi.mpi_group_free, 12345),
                (capi.mpi_request_free, 12345)]:
            try:
                stub(handle)
                out[stub.__name__, handle] = None
            except MPIException as exc:
                out[stub.__name__, handle] = exc.error_code
        # nothing was touched: the predefined objects still answer
        out["int"] = capi.mpi_type_size(H.DT_INT)
        out["empty"] = capi.mpi_group_size(H.GROUP_EMPTY)
        capi.mpi_finalize()
        return out

    def test_error_class_per_space(self):
        out, = mpirun(1, self._free_errors)
        assert out == {
            ("mpi_type_free", H.DT_INT): errors.ERR_TYPE,
            ("mpi_group_free", H.GROUP_EMPTY): errors.ERR_GROUP,
            ("mpi_op_free", H.OP_SUM): errors.ERR_OP,
            ("mpi_comm_free", H.COMM_WORLD): errors.ERR_COMM,
            ("mpi_request_free", H.REQUEST_NULL): errors.ERR_REQUEST,
            ("mpi_type_free", 12345): errors.ERR_ARG,
            ("mpi_group_free", 12345): errors.ERR_ARG,
            ("mpi_request_free", 12345): errors.ERR_ARG,
            "int": 4, "empty": 0}

    def test_dynamic_handles_still_free(self):
        def body():
            from repro.jni import capi
            capi.mpi_init([])
            dt = capi.mpi_type_contiguous(3, H.DT_INT)
            grp = capi.mpi_comm_group(H.COMM_WORLD)
            capi.mpi_type_free(dt)
            capi.mpi_group_free(grp)
            gone = []
            for stub, h in ((capi.mpi_type_size, dt),
                            (capi.mpi_group_size, grp)):
                try:
                    stub(h)
                except MPIException as exc:
                    gone.append(exc.error_code)
            capi.mpi_finalize()
            return gone

        assert mpirun(1, body) == [[errors.ERR_ARG, errors.ERR_ARG]]
