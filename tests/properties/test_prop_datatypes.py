"""Property-based tests: datatype algebra and packing invariants."""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.datatypes import derived, packing, primitives as P
from repro.errors import MPIException
from repro.runtime.buffers import validate_buffer
from tests.conftest import window

counts = st.integers(min_value=0, max_value=8)
blocks = st.integers(min_value=0, max_value=5)
strides = st.integers(min_value=-6, max_value=8)


@st.composite
def vectors(draw):
    count = draw(st.integers(1, 6))
    blocklength = draw(st.integers(1, 4))
    stride = draw(st.integers(blocklength, blocklength + 6))
    return derived.vector(count, blocklength, stride, P.INT)


@st.composite
def indexeds(draw):
    n = draw(st.integers(1, 5))
    blocklengths = draw(st.lists(st.integers(0, 3), min_size=n,
                                 max_size=n))
    # non-overlapping ascending displacements
    displs, pos = [], 0
    for b in blocklengths:
        gap = draw(st.integers(0, 3))
        displs.append(pos + gap)
        pos += gap + b
    return derived.indexed(blocklengths, displs, P.INT)


@st.composite
def datatypes(draw):
    return draw(st.one_of(vectors(), indexeds(),
                          st.builds(derived.contiguous,
                                    st.integers(1, 8),
                                    st.just(P.INT))))


class TestAlgebra:
    @given(datatypes())
    def test_size_never_exceeds_span(self, t):
        assert t.size_elems <= max(window(t, 1)[1], t.size_elems)

    @given(datatypes(), st.integers(1, 4))
    def test_flat_indices_count_scaling(self, t, count):
        idx = t.flat_indices(count)
        assert len(idx) == count * t.size_elems

    @given(datatypes())
    def test_indices_unique_within_instance(self, t):
        idx = t.flat_indices(1)
        assert len(set(idx.tolist())) == len(idx)

    @given(datatypes(), st.integers(0, 10))
    def test_offset_shifts_indices(self, t, offset):
        base = t.flat_indices(1, 0)
        shifted = t.flat_indices(1, offset)
        assert np.array_equal(shifted, base + offset)

    @given(st.integers(1, 6), st.integers(1, 4))
    def test_contiguous_equals_vector_with_unit_stride(self, count, blk):
        c = derived.contiguous(count * blk, P.INT)
        v = derived.vector(count, blk, blk, P.INT)
        assert np.array_equal(c.disp, v.disp)

    @given(st.integers(1, 5), st.integers(1, 3), st.integers(1, 8))
    def test_hvector_consistent_with_vector(self, count, blk, stride):
        v = derived.vector(count, blk, stride, P.INT)
        h = derived.hvector(count, blk, stride * 4, P.INT)  # int = 4 bytes
        assert np.array_equal(v.disp, h.disp)
        assert v.extent_elems == h.extent_elems

    @given(st.integers(1, 5), st.integers(1, 3), st.integers(1, 8))
    def test_vector_extent_formula(self, count, blk, stride_extra):
        stride = blk + stride_extra
        v = derived.vector(count, blk, stride, P.INT)
        assert v.extent_elems == (count - 1) * stride + blk


class TestPackingRoundtrip:
    @given(datatypes(), st.integers(1, 3), st.data())
    @settings(max_examples=60)
    def test_gather_scatter_roundtrip(self, t, count, data):
        t.commit()
        lo, span = window(t, count)
        size = span + lo + 5
        offset = lo + data.draw(st.integers(0, 4))
        src = np.arange(size, dtype=np.int32)
        lay = validate_buffer(src, offset, count, t)
        gathered = lay.gather(src, offset, count)
        dst = np.zeros(size, dtype=np.int32) - 1
        lay.scatter(dst, offset, count, gathered)
        idx = t.flat_indices(count, offset)
        assert np.array_equal(dst[idx], src[idx])
        # untouched elements stay untouched
        mask = np.ones(size, dtype=bool)
        mask[idx] = False
        assert (dst[mask] == -1).all()

    @given(datatypes(), st.integers(0, 3), st.data())
    @settings(max_examples=120)
    def test_window_check_is_exact(self, t, count, data):
        """``validate_buffer`` accepts a window iff every selected
        element is inside the array (oracle: the flat index map)."""
        t.commit()
        size = data.draw(st.integers(0, window(t, count)[1] + 4))
        offset = data.draw(st.integers(0, 6))
        buf = np.zeros(size, dtype=np.int32)
        idx = t.flat_indices(count, offset)
        fits = len(idx) == 0 and offset <= size or \
            len(idx) > 0 and idx.min() >= 0 and idx.max() < size
        try:
            validate_buffer(buf, offset, count, t)
            assert fits
        except MPIException:
            assert not fits

    @given(datatypes(), st.integers(1, 3))
    @settings(max_examples=60)
    def test_pack_unpack_roundtrip(self, t, count):
        t.commit()
        lo, span = window(t, count)
        size = span + lo + 2
        src = np.random.default_rng(0).integers(0, 100, size) \
            .astype(np.int32)
        nbytes = packing.pack_size(count, t)
        packed = np.zeros(nbytes, dtype=np.uint8)
        end = packing.pack(src, lo, count, t, packed, 0)
        assert end == nbytes
        dst = np.zeros(size, dtype=np.int32)
        packing.unpack(packed, 0, dst, lo, count, t)
        idx = t.flat_indices(count, lo)
        assert np.array_equal(dst[idx], src[idx])

    @given(st.lists(st.one_of(st.integers(), st.text(), st.booleans(),
                              st.lists(st.integers(), max_size=3)),
                    min_size=0, max_size=6))
    def test_object_serialization_roundtrip(self, objs):
        from repro.datatypes.object_serial import (deserialize_objects,
                                                   serialize_objects)
        assert deserialize_objects(serialize_objects(objs)) == objs
