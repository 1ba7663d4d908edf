"""Datatype kernel: primitives, inquiry, index maps."""

import numpy as np
import pytest

from repro.datatypes import primitives as P
from repro.datatypes import derived
from repro.errors import MPIException
from repro.runtime.buffers import validate_buffer


class TestPrimitives:
    def test_figure2_mapping(self):
        # the paper's Figure 2 table (Java types -> our dtypes)
        assert P.BYTE.base.np_dtype == np.dtype(np.int8)
        assert P.CHAR.base.np_dtype == np.dtype(np.uint16)  # UTF-16 unit
        assert P.SHORT.base.np_dtype == np.dtype(np.int16)
        assert P.BOOLEAN.base.np_dtype == np.dtype(np.bool_)
        assert P.INT.base.np_dtype == np.dtype(np.int32)
        assert P.LONG.base.np_dtype == np.dtype(np.int64)
        assert P.FLOAT.base.np_dtype == np.dtype(np.float32)
        assert P.DOUBLE.base.np_dtype == np.dtype(np.float64)
        assert P.PACKED.base.np_dtype == np.dtype(np.uint8)

    def test_primitives_committed_by_default(self):
        for t in P.ALL_PREDEFINED:
            assert t.committed

    def test_primitive_shape(self):
        for t in P.BASIC_TYPES:
            assert t.size_elems == 1
            assert t.extent_elems == 1
            assert t.is_primitive

    def test_primitive_sizes(self):
        assert P.BYTE.size_bytes() == 1
        assert P.INT.size_bytes() == 4
        assert P.DOUBLE.size_bytes() == 8
        assert P.CHAR.size_bytes() == 2

    def test_pair_types(self):
        for t in P.PAIR_TYPES:
            assert t.is_pair
            assert t.size_elems == 2
            assert t.extent_elems == 2
        assert P.INT2.base is P.INT.base
        assert P.DOUBLE2.base is P.DOUBLE.base

    def test_object_type(self):
        assert P.OBJECT.base.is_object
        assert P.OBJECT.base.itemsize == 0

    def test_primitive_for_dtype(self):
        assert P.primitive_for_dtype(np.int32) is P.INT
        assert P.primitive_for_dtype("float64") is P.DOUBLE
        with pytest.raises(KeyError):
            P.primitive_for_dtype(np.complex128)


class TestInquiry:
    def test_contiguous_extent_and_size(self):
        t = derived.contiguous(5, P.INT)
        assert t.size_elems == 5
        assert t.extent_elems == 5
        assert t.size_bytes() == 20
        assert t.extent_bytes() == 20
        assert t.lb_elems() == 0 and t.ub_elems() == 5

    def test_vector_size_vs_extent(self):
        # 3 blocks of 2, stride 4: touches 0,1,4,5,8,9; extent 10
        t = derived.vector(3, 2, 4, P.DOUBLE)
        assert t.size_elems == 6
        assert t.extent_elems == 10
        assert t.size_bytes() == 48
        assert t.extent_bytes() == 80

    def test_flat_indices_contiguous(self):
        t = derived.contiguous(3, P.INT)
        idx = t.flat_indices(2, offset=1)
        assert list(idx) == [1, 2, 3, 4, 5, 6]

    def test_flat_indices_vector(self):
        t = derived.vector(2, 1, 3, P.INT)
        assert list(t.flat_indices(1)) == [0, 3]
        # count=2: second instance starts at extent=4
        assert list(t.flat_indices(2)) == [0, 3, 4, 7]

    def test_flat_indices_cached(self):
        t = derived.contiguous(2, P.INT)
        a = t.flat_indices(4, 0)
        b = t.flat_indices(4, 0)
        assert a is b

    def test_flat_indices_negative_count_rejected(self):
        with pytest.raises(MPIException):
            P.INT.flat_indices(-1)

    def test_span(self):
        t = derived.vector(2, 2, 5, P.INT)  # elements 0,1,5,6; extent 7
        t.commit()
        for count, span in ((1, 7), (2, 14), (0, 0)):
            validate_buffer(np.zeros(span, dtype=np.int32), 0, count, t)
            if span:
                with pytest.raises(MPIException):
                    validate_buffer(np.zeros(span - 1, dtype=np.int32), 0,
                                    count, t)

    def test_is_contiguous_layout(self):
        assert derived.contiguous(4, P.INT).layout().contiguous
        assert not derived.vector(2, 1, 3, P.INT).layout().contiguous


class TestLifecycle:
    def test_commit_then_free(self):
        t = derived.contiguous(2, P.INT)
        assert not t.committed
        t.commit()
        assert t.committed
        t.free()
        with pytest.raises(MPIException):
            t.commit()
        with pytest.raises(MPIException):
            t.flat_indices(1)

    def test_double_free_rejected(self):
        t = derived.contiguous(2, P.INT)
        t.free()
        with pytest.raises(MPIException):
            t.free()
