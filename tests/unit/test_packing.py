"""The element datapath through a datatype (window check, gather,
scatter) and MPI_Pack/Unpack on top of it."""

import numpy as np
import pytest

from repro.datatypes import derived, packing, primitives as P
from repro.errors import MPIException, ERR_BUFFER
from repro.runtime.buffers import validate_buffer


def committed(t):
    t.commit()
    return t


class TestGatherScatter:
    def test_contiguous_roundtrip(self):
        buf = np.arange(10, dtype=np.int32)
        lay = validate_buffer(buf, 2, 3, P.INT)
        out = lay.gather(buf, 2, 3)
        assert list(out) == [2, 3, 4]
        dst = np.zeros(10, dtype=np.int32)
        lay.scatter(dst, 2, 3, out)
        assert list(dst[2:5]) == [2, 3, 4]

    def test_gather_returns_copy(self):
        buf = np.arange(4, dtype=np.int32)
        out = P.INT.layout().gather(buf, 0, 4)
        out[0] = 99
        assert buf[0] == 0

    def test_strided_gather(self):
        t = committed(derived.vector(3, 1, 2, P.INT))
        buf = np.arange(10, dtype=np.int32)
        assert list(validate_buffer(buf, 1, 1, t).gather(buf, 1, 1)) \
            == [1, 3, 5]

    def test_strided_scatter(self):
        t = committed(derived.vector(3, 1, 2, P.INT))
        buf = np.zeros(8, dtype=np.int32)
        validate_buffer(buf, 0, 1, t).scatter(
            buf, 0, 1, np.array([7, 8, 9], dtype=np.int32))
        assert list(buf) == [7, 0, 8, 0, 9, 0, 0, 0]

    def test_out_of_bounds_rejected(self):
        buf = np.arange(4, dtype=np.int32)
        with pytest.raises(MPIException) as ei:
            validate_buffer(buf, 2, 3, P.INT)
        assert ei.value.error_code == ERR_BUFFER
        with pytest.raises(MPIException):
            validate_buffer(buf, -1, 1, P.INT)

    def test_negative_stride_window(self):
        t = committed(derived.vector(2, 1, -2, P.INT))  # touches 0 and -2
        buf = np.arange(6, dtype=np.int32)
        out = validate_buffer(buf, 3, 1, t).gather(buf, 3, 1)
        assert list(out) == [3, 1]
        with pytest.raises(MPIException) as ei:
            validate_buffer(buf, 1, 1, t)  # would touch -1
        assert ei.value.error_code == ERR_BUFFER


class TestPackUnpack:
    def test_primitive_roundtrip(self):
        src = np.arange(6, dtype=np.float64)
        packed = np.zeros(packing.pack_size(6, P.DOUBLE), dtype=np.uint8)
        pos = packing.pack(src, 0, 6, P.DOUBLE, packed, 0)
        assert pos == 48
        dst = np.zeros(6, dtype=np.float64)
        end = packing.unpack(packed, 0, dst, 0, 6, P.DOUBLE)
        assert end == 48
        assert np.array_equal(src, dst)

    def test_two_types_in_one_buffer(self):
        ints = np.arange(3, dtype=np.int32)
        doubles = np.array([1.5, 2.5])
        packed = np.zeros(12 + 16, dtype=np.uint8)
        pos = packing.pack(ints, 0, 3, P.INT, packed, 0)
        pos = packing.pack(doubles, 0, 2, P.DOUBLE, packed, pos)
        assert pos == 28
        i2 = np.zeros(3, dtype=np.int32)
        d2 = np.zeros(2, dtype=np.float64)
        pos = packing.unpack(packed, 0, i2, 0, 3, P.INT)
        pos = packing.unpack(packed, pos, d2, 0, 2, P.DOUBLE)
        assert list(i2) == [0, 1, 2]
        assert list(d2) == [1.5, 2.5]

    def test_derived_type_packs_dense(self):
        t = committed(derived.vector(2, 1, 3, P.INT))
        src = np.arange(8, dtype=np.int32)
        packed = np.zeros(packing.pack_size(1, t), dtype=np.uint8)
        packing.pack(src, 0, 1, t, packed, 0)
        dst = np.zeros(8, dtype=np.int32)
        packing.unpack(packed, 0, dst, 0, 1, t)
        assert list(dst) == [0, 0, 0, 3, 0, 0, 0, 0]

    def test_pack_overflow_rejected(self):
        src = np.arange(4, dtype=np.int32)
        packed = np.zeros(8, dtype=np.uint8)
        with pytest.raises(MPIException):
            packing.pack(src, 0, 4, P.INT, packed, 0)

    def test_unpack_underflow_rejected(self):
        packed = np.zeros(4, dtype=np.uint8)
        dst = np.zeros(4, dtype=np.int32)
        with pytest.raises(MPIException):
            packing.unpack(packed, 0, dst, 0, 4, P.INT)

    def test_pack_and_unpack_check_the_user_window(self):
        src = np.arange(4, dtype=np.int32)
        packed = np.zeros(64, dtype=np.uint8)
        with pytest.raises(MPIException) as ei:
            packing.pack(src, 2, 4, P.INT, packed, 0)
        assert ei.value.error_code == ERR_BUFFER
        packing.pack(src, 0, 4, P.INT, packed, 0)
        with pytest.raises(MPIException) as ei:
            packing.unpack(packed, 0, np.zeros(3, dtype=np.int32), 0, 4,
                           P.INT)
        assert ei.value.error_code == ERR_BUFFER

    def test_pack_size_of_object_rejected(self):
        with pytest.raises(MPIException):
            packing.pack_size(1, P.OBJECT)

    def test_object_pack_roundtrip(self):
        objs = ["alpha", {"k": 2}, (3, 4)]
        packed = np.zeros(4096, dtype=np.uint8)
        pos = packing.pack(objs, 0, 3, P.OBJECT, packed, 0)
        out = [None] * 3
        end = packing.unpack(packed, 0, out, 0, 3, P.OBJECT)
        assert end == pos
        assert out == objs
