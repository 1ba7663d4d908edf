"""Buffer validation and endpoint landing."""

import numpy as np
import pytest

from repro.datatypes import derived, primitives as P
from repro.errors import (MPIException, SUCCESS, ERR_BUFFER, ERR_TRUNCATE,
                          ERR_TYPE)
from repro.runtime.buffers import (extract_send_payload, land_dense,
                                   land_payload, validate_buffer)
from repro.runtime.envelope import Envelope


def _env(payload, nelems, is_object=False):
    return Envelope(payload=payload, nelems=nelems, is_object=is_object)


class TestValidate:
    def test_happy_path(self):
        validate_buffer(np.zeros(4, dtype=np.int32), 0, 4, P.INT)

    def test_list_rejected_for_primitive(self):
        with pytest.raises(MPIException) as ei:
            validate_buffer([1, 2, 3], 0, 3, P.INT)
        assert ei.value.error_code == ERR_BUFFER

    def test_2d_array_rejected(self):
        # Java 'multidimensional arrays' are arrays of arrays — paper §2
        with pytest.raises(MPIException) as ei:
            validate_buffer(np.zeros((2, 2), dtype=np.int32), 0, 4, P.INT)
        assert "one-dimensional" in str(ei.value)

    def test_dtype_mismatch_rejected(self):
        with pytest.raises(MPIException) as ei:
            validate_buffer(np.zeros(4, dtype=np.float64), 0, 4, P.INT)
        assert ei.value.error_code == ERR_TYPE

    def test_negative_count_offset(self):
        buf = np.zeros(4, dtype=np.int32)
        with pytest.raises(MPIException):
            validate_buffer(buf, 0, -1, P.INT)
        with pytest.raises(MPIException):
            validate_buffer(buf, -1, 1, P.INT)

    def test_uncommitted_rejected(self):
        t = derived.contiguous(2, P.INT)
        with pytest.raises(MPIException):
            validate_buffer(np.zeros(4, dtype=np.int32), 0, 1, t)

    def test_object_buffer_accepts_list(self):
        validate_buffer([1, "a"], 0, 2, P.OBJECT)

    def test_object_buffer_length_checked(self):
        with pytest.raises(MPIException):
            validate_buffer([1], 0, 2, P.OBJECT)

    def test_object_buffer_rejects_numeric_array(self):
        with pytest.raises(MPIException):
            validate_buffer(np.zeros(3, dtype=np.int32), 0, 3, P.OBJECT)


def _vector():
    t = derived.vector(5, 1, 2, P.INT)      # touches 0 2 4 6 8
    t.commit()
    return t


class TestWindow:
    """``count`` instances at ``offset`` must fit the array: checked by
    ``validate_buffer``, once, for whoever names the window."""

    @pytest.mark.parametrize("t,count,need", [
        (P.INT, 10, 10), (_vector(), 1, 9), (_vector(), 2, 18)],
        ids=("contiguous", "vector", "vector-x2"))
    def test_overrun_rejected_exact_fit_accepted(self, t, count, need):
        lay = validate_buffer(np.zeros(need + 3, dtype=np.int32), 3, count, t)
        assert lay is t.layout()
        with pytest.raises(MPIException) as ei:
            validate_buffer(np.zeros(need + 2, dtype=np.int32), 3, count, t)
        assert ei.value.error_code == ERR_BUFFER

    def test_negative_stride_underrun(self):
        t = derived.vector(2, 1, -2, P.INT)      # touches 0 and -2
        t.commit()
        buf = np.zeros(4, dtype=np.int32)
        validate_buffer(buf, 2, 1, t)
        with pytest.raises(MPIException) as ei:
            validate_buffer(buf, 1, 1, t)
        assert ei.value.error_code == ERR_BUFFER

    def test_empty_window_only_needs_its_offset(self):
        buf = np.zeros(4, dtype=np.int32)
        validate_buffer(buf, 4, 0, P.INT)
        validate_buffer(buf, 4, 0, _vector())
        with pytest.raises(MPIException):
            validate_buffer(buf, 5, 0, P.INT)

    def test_freed_type_rejected(self):
        t = _vector()
        t.free()
        with pytest.raises(MPIException) as ei:
            validate_buffer(np.zeros(16, dtype=np.int32), 0, 1, t)
        assert ei.value.error_code == ERR_TYPE

    @pytest.mark.parametrize("t,count", [(P.INT, 10), (_vector(), 1)],
                             ids=("contiguous", "vector"))
    def test_zero_copy_send_forms_are_checked_too(self, t, count):
        """The borrowed view / iovec of a wire send used to skip the
        check: a slice silently shortened the message."""
        with pytest.raises(MPIException) as ei:
            extract_send_payload(np.zeros(5, dtype=np.int32), 0, count, t,
                                 allow_view=True)
        assert ei.value.error_code == ERR_BUFFER

    def test_land_dense_checks_the_landing_window(self):
        data = np.arange(4, dtype=np.int32)
        with pytest.raises(MPIException) as ei:
            land_dense(np.zeros(6, dtype=np.int32), 3, 4, P.INT, data, False)
        assert ei.value.error_code == ERR_BUFFER
        buf = np.zeros(8, dtype=np.int32)
        assert land_dense(buf, 3, 4, P.INT, data, False) == 4
        assert list(buf) == [0, 0, 0, 0, 1, 2, 3, 0]

    def test_land_dense_segment_of_a_derived_window(self):
        t = _vector()
        buf = np.full(9, -1, dtype=np.int32)
        land_dense(buf, 0, 1, t, np.array([7, 8], dtype=np.int32), False,
                   elem_lo=2)
        assert list(buf) == [-1, -1, -1, -1, 7, -1, 8, -1, -1]
        with pytest.raises(MPIException) as ei:     # past the window
            land_dense(buf, 0, 1, t, np.zeros(3, dtype=np.int32), False,
                       elem_lo=3)
        assert ei.value.error_code == ERR_TRUNCATE

    def test_land_dense_objects_by_reference(self):
        """Object contributions no longer round-trip through pickle
        inside a rank."""
        thing = object()
        buf = [None, None]
        assert land_dense(buf, 1, 1, P.OBJECT, [thing], True) == 1
        assert buf[1] is thing
        with pytest.raises(MPIException):
            land_dense(buf, 1, 1, P.INT, [thing], True)


class TestExtract:
    def test_primitive_payload_is_copy(self):
        buf = np.arange(4, dtype=np.int32)
        payload, nelems, is_object = extract_send_payload(buf, 0, 4, P.INT)
        assert nelems == 4 and not is_object
        buf[0] = 99
        assert payload[0] == 0

    def test_object_payload_pickled(self):
        payload, nelems, is_object = extract_send_payload(
            ["a", {"b": 1}], 0, 2, P.OBJECT)
        assert is_object and nelems == 2
        assert isinstance(payload, bytes)


class TestLand:
    def test_land_shorter_ok(self):
        buf = np.zeros(10, dtype=np.int32)
        n, err, _ = land_payload(buf, 0, 10, P.INT,
                                 _env(np.arange(3, dtype=np.int32),
                                           3, False))
        assert (n, err) == (3, SUCCESS)
        assert list(buf[:4]) == [0, 1, 2, 0]

    def test_land_longer_truncates_with_error(self):
        buf = np.zeros(2, dtype=np.int32)
        n, err, msg = land_payload(buf, 0, 2, P.INT,
                                   _env(np.arange(5, dtype=np.int32),
                                             5, False))
        assert err == ERR_TRUNCATE and "truncated" in msg

    def test_land_partial_trailing_instance(self):
        # 5 elements into 3 instances of a 2-element type: 2.5 instances
        t = derived.contiguous(2, P.INT)
        t.commit()
        buf = np.full(6, -1, dtype=np.int32)
        n, err, _ = land_payload(buf, 0, 3, t,
                                 _env(np.arange(5, dtype=np.int32),
                                           5, False))
        assert (n, err) == (5, SUCCESS)
        assert list(buf) == [0, 1, 2, 3, 4, -1]

    def test_land_wrong_dtype_rejected(self):
        buf = np.zeros(4, dtype=np.int32)
        n, err, _ = land_payload(buf, 0, 4, P.INT,
                                 _env(np.zeros(2, dtype=np.float64),
                                           2, False))
        assert err == ERR_TYPE

    def test_land_object_into_primitive_rejected(self):
        buf = np.zeros(4, dtype=np.int32)
        n, err, _ = land_payload(buf, 0, 4, P.INT,
                                 _env(b"blob", 1, True))
        assert err == ERR_TYPE

    def test_land_primitive_into_object_rejected(self):
        buf = [None]
        n, err, _ = land_payload(buf, 0, 1, P.OBJECT,
                                 _env(np.zeros(1, dtype=np.int32),
                                           1, False))
        assert err == ERR_TYPE

    def test_land_objects(self):
        from repro.datatypes.object_serial import serialize_objects
        buf = [None, None, None]
        blob = serialize_objects(["x", "y"])
        n, err, _ = land_payload(buf, 1, 2, P.OBJECT,
                                 _env(blob, 2, True))
        assert (n, err) == (2, SUCCESS)
        assert buf == [None, "x", "y"]

    def test_land_dense_raises_on_error(self):
        buf = np.zeros(1, dtype=np.int32)
        with pytest.raises(MPIException):
            land_dense(buf, 0, 1, P.INT, np.arange(5, dtype=np.int32),
                       False)

    def test_land_empty_payload(self):
        buf = np.full(3, 7, dtype=np.int32)
        n, err, _ = land_payload(buf, 0, 3, P.INT, _env(None, 0,
                                                             False))
        assert (n, err) == (0, SUCCESS)
        assert list(buf) == [7, 7, 7]
