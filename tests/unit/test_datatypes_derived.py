"""Derived-datatype constructors, including the paper's §2.2 restrictions."""

import pytest

from repro.datatypes import derived, primitives as P
from repro.errors import MPIException


class TestContiguous:
    def test_of_primitive(self):
        t = derived.contiguous(4, P.FLOAT)
        assert list(t.disp) == [0, 1, 2, 3]

    def test_of_derived(self):
        inner = derived.vector(2, 1, 2, P.INT)   # 0, 2; extent 3
        t = derived.contiguous(2, inner)
        assert list(t.disp) == [0, 2, 3, 5]
        assert t.extent_elems == 6

    def test_zero_count(self):
        t = derived.contiguous(0, P.INT)
        assert t.size_elems == 0

    def test_negative_count_rejected(self):
        with pytest.raises(MPIException):
            derived.contiguous(-1, P.INT)


class TestVector:
    def test_basic(self):
        t = derived.vector(3, 2, 4, P.INT)
        assert list(t.disp) == [0, 1, 4, 5, 8, 9]

    def test_stride_equals_blocklength_is_contiguous(self):
        t = derived.vector(3, 2, 2, P.INT)
        assert t.layout().contiguous

    def test_negative_stride(self):
        t = derived.vector(2, 1, -3, P.INT)
        assert sorted(t.disp) == [-3, 0]
        assert t.extent_elems == 4

    def test_of_derived_oldtype(self):
        inner = derived.contiguous(2, P.INT)
        t = derived.vector(2, 1, 2, inner)  # blocks at 0 and 4 (2*extent 2)
        assert list(t.disp) == [0, 1, 4, 5]

    def test_zero_blocklength(self):
        t = derived.vector(3, 0, 2, P.INT)
        assert t.size_elems == 0


class TestHvector:
    def test_byte_stride(self):
        t = derived.hvector(3, 1, 8, P.INT)  # 8 bytes = 2 ints
        assert list(t.disp) == [0, 2, 4]

    def test_misaligned_stride_rejected(self):
        with pytest.raises(MPIException):
            derived.hvector(2, 1, 5, P.INT)

    def test_matches_vector(self):
        v = derived.vector(3, 2, 4, P.DOUBLE)
        h = derived.hvector(3, 2, 32, P.DOUBLE)
        assert list(v.disp) == list(h.disp)
        assert v.extent_elems == h.extent_elems


class TestIndexed:
    def test_basic(self):
        t = derived.indexed([2, 1], [0, 5], P.INT)
        assert list(t.disp) == [0, 1, 5]
        assert t.extent_elems == 6

    def test_displacements_in_extents(self):
        inner = derived.contiguous(2, P.INT)  # extent 2
        t = derived.indexed([1], [3], inner)
        assert list(t.disp) == [6, 7]

    def test_length_mismatch_rejected(self):
        with pytest.raises(MPIException):
            derived.indexed([1, 2], [0], P.INT)

    def test_negative_blocklength_rejected(self):
        with pytest.raises(MPIException):
            derived.indexed([-1], [0], P.INT)

    def test_hindexed_bytes(self):
        t = derived.hindexed([1, 1], [0, 12], P.INT)
        assert list(t.disp) == [0, 3]

    def test_hindexed_misaligned_rejected(self):
        with pytest.raises(MPIException):
            derived.hindexed([1], [3], P.INT)


class TestStruct:
    def test_same_base_struct(self):
        t = derived.struct([1, 2], [0, 8], [P.INT, P.INT])
        assert list(t.disp) == [0, 2, 3]

    def test_mixed_base_rejected_per_paper(self):
        # paper §2.2: all combined types must have the same base type
        with pytest.raises(MPIException) as ei:
            derived.struct([1, 1], [0, 8], [P.INT, P.DOUBLE])
        assert "2.2" in str(ei.value) or "base type" in str(ei.value)

    def test_struct_of_deriveds(self):
        v = derived.vector(2, 1, 3, P.FLOAT)  # 0, 3
        t = derived.struct([1, 1], [0, 16], [v, v])
        assert list(t.disp) == [0, 3, 4, 7]

    def test_empty_struct_rejected(self):
        with pytest.raises(MPIException):
            derived.struct([], [], [])

    def test_length_mismatch_rejected(self):
        with pytest.raises(MPIException):
            derived.struct([1], [0, 4], [P.INT, P.INT])

    def test_misaligned_displacement_rejected(self):
        with pytest.raises(MPIException):
            derived.struct([1], [2], [P.INT])


class TestObjectRestrictions:
    def test_no_derived_types_over_object(self):
        with pytest.raises(MPIException):
            derived.contiguous(2, P.OBJECT)
        with pytest.raises(MPIException):
            derived.vector(2, 1, 2, P.OBJECT)
        with pytest.raises(MPIException):
            derived.struct([1], [0], [P.OBJECT])
