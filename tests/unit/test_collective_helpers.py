"""Collective plumbing helpers (contribution handling)."""

import numpy as np
import pytest

from repro.datatypes import derived, primitives as P
from repro.errors import MPIException
from repro.runtime import reduce_ops as O
from repro.runtime.collective import common


class TestContribHandling:
    def test_extract_dense(self):
        kind, data = common.extract_contrib(
            np.arange(6, dtype=np.int32), 1, 4, P.INT)
        assert kind == "dense"
        assert list(data) == [1, 2, 3, 4]

    def test_extract_object(self):
        kind, data = common.extract_contrib(["a", "b", "c"], 1, 2,
                                            P.OBJECT)
        assert kind == "obj"
        assert data == ["b", "c"]

    def test_extract_strided(self):
        t = derived.vector(2, 1, 3, P.INT)
        t.commit()
        kind, data = common.extract_contrib(
            np.arange(8, dtype=np.int32), 0, 1, t)
        assert list(data) == [0, 3]

    def test_land_dense(self):
        buf = np.zeros(5, dtype=np.int32)
        n = common.land_contrib(buf, 1, 3, P.INT,
                                ("dense", np.array([7, 8, 9],
                                                   dtype=np.int32)))
        assert n == 3
        assert list(buf) == [0, 7, 8, 9, 0]

    def test_land_object(self):
        buf = [None, None]
        common.land_contrib(buf, 0, 2, P.OBJECT, ("obj", [1, 2]))
        assert buf == [1, 2]

    def test_accumulator_is_the_result_window_when_it_can_be(self):
        send = np.arange(6, dtype=np.int32)
        recv = np.full(8, -1, dtype=np.int32)
        (kind, accum), in_window = common.reduction_accum(
            send, 1, recv, 2, 4, P.INT)
        assert kind == "dense" and in_window
        assert np.shares_memory(accum, recv)
        assert list(recv) == [-1, -1, 1, 2, 3, 4, -1, -1]
        assert list(send) == [0, 1, 2, 3, 4, 5]

    def test_accumulator_of_overlapping_windows_copies_as_if_staged(self):
        buf = np.arange(6, dtype=np.int32)
        (_, accum), in_window = common.reduction_accum(
            buf, 0, buf, 1, 4, P.INT)
        assert in_window and list(accum) == [0, 1, 2, 3]
        (_, same), _ = common.reduction_accum(buf, 1, buf, 1, 4, P.INT)
        assert list(same) == [0, 1, 2, 3]

    @pytest.mark.parametrize("why", ["strided", "readonly"])
    def test_accumulator_falls_back_to_a_private_gather_copy(self, why):
        send = np.arange(8, dtype=np.int32)
        recv = np.zeros(8, dtype=np.int32)
        t, count = P.INT, 4
        if why == "strided":
            t, count = derived.vector(2, 1, 3, P.INT), 1
            t.commit()
        else:
            recv.flags.writeable = False
        (_, accum), in_window = common.reduction_accum(
            send, 0, recv, 0, count, t)
        assert not in_window
        assert not np.shares_memory(accum, send)
        assert not np.shares_memory(accum, recv)
        assert list(accum) == ([0, 3] if why == "strided" else [0, 1, 2, 3])

    def test_scratch_matches_dense_and_is_none_for_objects(self):
        arr = np.arange(3, dtype=np.int16)
        tmp = common.scratch(("dense", arr))
        assert tmp.shape == arr.shape and tmp.dtype == arr.dtype
        assert not np.shares_memory(tmp, arr)
        assert common.scratch(("obj", [1, 2])) is None

    def test_combine_folds_into_the_inout_operand_only(self):
        a = np.array([1, 2], dtype=np.int64)
        b = np.array([10, 20], dtype=np.int64)
        kind, out = common.combine(O.SUM, ("dense", a), ("dense", b),
                                   P.LONG)
        assert out is b and list(b) == [11, 22]
        assert list(a) == [1, 2]

    def test_combine_objects(self):
        kind, out = common.combine(O.MAX, ("obj", [1, 9]),
                                   ("obj", [5, 5]), P.OBJECT)
        assert out == [5, 9]

    def test_combine_mixed_kinds_rejected(self):
        with pytest.raises(MPIException):
            common.combine(O.SUM, ("obj", [1]),
                           ("dense", np.array([1])), P.INT)

    def test_concat_dense(self):
        kind, out = common.concat([
            ("dense", np.array([1, 2], dtype=np.int32)),
            ("dense", np.array([3], dtype=np.int32))])
        assert kind == "dense" and list(out) == [1, 2, 3]

    def test_concat_objects(self):
        kind, out = common.concat([("obj", ["a"]), ("obj", ["b", "c"])])
        assert out == ["a", "b", "c"]

    def test_slice_contrib(self):
        contrib = ("dense", np.arange(6))
        kind, out = common.slice_contrib(contrib, 2, 5)
        assert list(out) == [2, 3, 4]

    def test_empty_token(self):
        kind, data = common.empty_token()
        assert kind == "dense" and len(data) == 0

    def test_check_root_bounds(self):
        class FakeComm:
            size = 4
            name = "fake"

        common.check_root(FakeComm(), 3)
        with pytest.raises(MPIException):
            common.check_root(FakeComm(), 4)
        with pytest.raises(MPIException):
            common.check_root(FakeComm(), -1)


class TestConfig:
    def test_defaults(self):
        assert common.algorithm_for("bcast") == "binomial"
        assert common.algorithm_for("allreduce") == "recursive_doubling"
        assert common.algorithm_for("barrier") == "dissemination"

    def test_overrides_scoped_and_nested(self):
        with common.algorithm_overrides(bcast="linear"):
            assert common.algorithm_for("bcast") == "linear"
            with common.algorithm_overrides(barrier="linear"):
                assert common.algorithm_for("bcast") == "linear"
                assert common.algorithm_for("barrier") == "linear"
            assert common.algorithm_for("barrier") == "dissemination"
        assert common.algorithm_for("bcast") == "binomial"

    def test_overrides_are_thread_local(self):
        import threading
        seen = {}

        def peek():
            seen["other"] = common.algorithm_for("bcast")

        with common.algorithm_overrides(bcast="linear"):
            t = threading.Thread(target=peek)
            t.start()
            t.join()
        assert seen["other"] == "binomial"

    def test_unknown_collective_rejected(self):
        with pytest.raises(MPIException):
            with common.algorithm_overrides(telepathy="linear"):
                pass

    def test_unknown_algorithm_rejected(self):
        from repro import mpirun
        from repro.runtime import nbc
        from repro.runtime.collective.bcast import plan_bcast

        def body():
            from repro.jni import capi
            from repro.jni.handles import tables_for
            from repro.runtime.engine import current_runtime
            capi.mpi_init([])
            comm = tables_for(current_runtime()).comms.lookup(1)
            try:
                with common.algorithm_overrides(bcast="telepathy"):
                    nbc.run(comm, *plan_bcast(
                        comm, np.zeros(1, dtype=np.int32), 0, 1, P.INT, 0))
                return "no error"
            except ValueError:
                return "rejected"
            finally:
                capi.mpi_finalize()

        assert mpirun(2, body) == ["rejected", "rejected"]

    def test_deleted_algorithms_fail_at_the_call(self):
        """The chain-pipeline ``Bcast`` and the ring ``Allreduce`` are
        gone: naming them is an error at the collective, not a fallback."""
        from repro import mpirun
        from repro.runtime import nbc
        from repro.runtime.collective.allreduce import plan_allreduce
        from repro.runtime.collective.bcast import plan_bcast

        def body():
            from repro.jni import capi
            from repro.jni.handles import tables_for
            from repro.runtime.engine import current_runtime
            capi.mpi_init([])
            comm = tables_for(current_runtime()).comms.lookup(1)
            a, b = np.ones(4), np.zeros(4)
            rejected = []
            try:
                for override, call in (
                        ({"bcast": "segmented"}, lambda: plan_bcast(
                            comm, a, 0, 4, P.DOUBLE, 0)),
                        ({"allreduce": "ring"}, lambda: plan_allreduce(
                            comm, a, 0, b, 0, 4, P.DOUBLE, O.SUM))):
                    with common.algorithm_overrides(**override):
                        with pytest.raises(ValueError, match="unknown"):
                            nbc.run(comm, *call())
                    rejected.append(*override.values())
                return rejected
            finally:
                capi.mpi_finalize()

        assert mpirun(2, body) == [["segmented", "ring"]] * 2
