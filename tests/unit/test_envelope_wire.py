"""Envelope wire encoding (the socket frame format)."""

import numpy as np
import pytest

from repro.errors import AbortException, MPIException, ERR_OTHER
from repro.runtime import envelope as ev


def roundtrip(env):
    header, body = ev.encode(env)
    assert len(header) == ev.HEADER_SIZE
    return ev.decode(header, body)


class TestAbortEnvelope:
    """Abort semantics must survive process isolation: errorcode, origin
    and the root-cause chain all ride in the envelope itself."""

    def test_errorcode_origin_and_cause_roundtrip(self):
        cause = ValueError("user code exploded")
        env = roundtrip(ev.encode_abort_env(2, 23, cause))
        assert env.kind == ev.KIND_ABORT
        origin, errorcode, got = ev.decode_abort_env(env)
        assert (origin, errorcode) == (2, 23)
        assert isinstance(got, ValueError)
        assert str(got) == "user code exploded"

    def test_launcher_timeout_origin_is_minus_one(self):
        env = roundtrip(ev.encode_abort_env(-1, 1, None))
        origin, errorcode, cause = ev.decode_abort_env(env)
        assert (origin, errorcode, cause) == (-1, 1, None)

    def test_cause_chain_preserved(self):
        inner = ValueError("root")
        outer = MPIException(ERR_OTHER, "wrapped")
        outer.__cause__ = inner
        env = roundtrip(ev.encode_abort_env(0, 1, outer))
        _, _, got = ev.decode_abort_env(env)
        assert isinstance(got, MPIException)
        assert isinstance(got.__cause__, ValueError)

    def test_unpicklable_cause_degrades_to_summary(self):
        class Nasty(Exception):  # local class: not importable remotely
            pass

        env = roundtrip(ev.encode_abort_env(1, 9, Nasty("ugh")))
        _, _, got = ev.decode_abort_env(env)
        assert isinstance(got, RuntimeError)
        assert "Nasty" in str(got)


class TestExceptionPickling:
    """MPI exceptions must survive a pickle round trip (the process
    backend ships them between rank processes and the launcher)."""

    def test_mpi_exception_roundtrips(self):
        import pickle
        exc = pickle.loads(pickle.dumps(MPIException(ERR_OTHER, "hi")))
        assert exc.error_code == ERR_OTHER
        assert exc.message == "hi"

    def test_abort_exception_roundtrips(self):
        import pickle
        exc = pickle.loads(pickle.dumps(AbortException(23, 4)))
        assert exc.abort_code == 23
        assert exc.origin_rank == 4


class TestEncodeDecode:
    def test_int_payload(self):
        env = ev.Envelope(src=1, dst=2, context=5, tag=42, seq=9,
                          payload=np.arange(4, dtype=np.int32), nelems=4)
        out = roundtrip(env)
        assert (out.src, out.dst, out.context, out.tag, out.seq) == \
            (1, 2, 5, 42, 9)
        assert out.nelems == 4
        assert out.payload.dtype == np.int32
        assert list(out.payload) == [0, 1, 2, 3]

    @pytest.mark.parametrize("dtype", [np.int8, np.uint16, np.int16,
                                       np.bool_, np.int32, np.int64,
                                       np.float32, np.float64, np.uint8])
    def test_all_dtypes(self, dtype):
        data = np.ones(3, dtype=dtype)
        env = ev.Envelope(payload=data, nelems=3)
        out = roundtrip(env)
        assert out.payload.dtype == np.dtype(dtype)
        assert np.array_equal(out.payload, data)

    def test_empty_payload(self):
        out = roundtrip(ev.Envelope(payload=None, nelems=0))
        assert out.payload is None
        assert out.nelems == 0

    def test_object_payload(self):
        blob = b"pickled-bytes"
        env = ev.Envelope(payload=blob, nelems=2, is_object=True)
        out = roundtrip(env)
        assert out.is_object
        assert bytes(out.payload) == blob
        assert out.nelems == 2

    def test_modes_preserved(self):
        for mode in (ev.MODE_STANDARD, ev.MODE_BUFFERED,
                     ev.MODE_SYNCHRONOUS, ev.MODE_READY):
            out = roundtrip(ev.Envelope(mode=mode))
            assert out.mode == mode

    def test_ack_kind(self):
        out = roundtrip(ev.Envelope(kind=ev.KIND_ACK, seq=77))
        assert out.kind == ev.KIND_ACK
        assert out.seq == 77

    def test_payload_nbytes(self):
        assert ev.Envelope(payload=None).payload_nbytes() == 0
        assert ev.Envelope(payload=b"abc",
                           is_object=True).payload_nbytes() == 3
        assert ev.Envelope(
            payload=np.zeros(5, dtype=np.float64)).payload_nbytes() == 40

    def test_notify_matched_hooks(self):
        hits = []
        env = ev.Envelope()
        env.on_matched = lambda: hits.append("cb")
        env.transport_notify = lambda e: hits.append("wire")
        env.notify_matched()
        assert hits == ["cb", "wire"]


class TestWritableDecode:
    """Regression: decode() used to hand out read-only np.frombuffer
    views; landing/reduction code that mutates a received payload in
    place must get a writable array at the single decode choke point."""

    def test_decode_from_immutable_bytes_is_writable_copy(self):
        env = ev.Envelope(payload=np.arange(6, dtype=np.float64), nelems=6)
        header, body = ev.encode(env)
        out = ev.decode(header, bytes(body))   # immutable source buffer
        assert out.payload.flags.writeable
        out.payload[0] = 99.0                  # must not raise

    def test_decode_from_writable_buffer_is_zero_copy_view(self):
        env = ev.Envelope(payload=np.arange(6, dtype=np.int32), nelems=6)
        header, body = ev.encode(env)
        staging = bytearray(bytes(body))       # the recv-pool case
        out = ev.decode(header, staging)
        assert out.payload.flags.writeable
        out.payload[0] = 42
        assert staging[0:4] == np.int32(42).tobytes()  # a view, not a copy


class TestZeroCopyEncode:
    def test_encode_body_views_the_payload(self):
        data = np.arange(8, dtype=np.int64)
        _, body = ev.encode(ev.Envelope(payload=data, nelems=8))
        assert isinstance(body, memoryview)
        data[0] = -1   # the view must alias the array, not copy it
        assert bytes(body[:8]) == np.int64(-1).tobytes()


class TestClaim:
    def test_claim_copies_borrowed_payload_out_of_the_pool(self):
        pool = bytearray(np.arange(4, dtype=np.int32).tobytes())
        env = ev.Envelope(payload=np.frombuffer(pool, dtype=np.int32),
                          nelems=4)
        env.borrowed = True
        env.claim()
        assert not env.borrowed
        pool[0:4] = b"\xff\xff\xff\xff"    # pool reuse must not leak in
        assert env.payload[0] == 0
        env.payload[1] = 7                  # claimed copies are writable

    def test_claim_is_a_no_op_for_owned_payloads(self):
        data = np.arange(3, dtype=np.int8)
        env = ev.Envelope(payload=data, nelems=3)
        env.claim()
        assert env.payload is data


class TestRtsFrames:
    def test_rts_announces_size_and_dtype_without_a_body(self):
        env = ev.Envelope(src=1, dst=0, context=3, tag=9, seq=12,
                          payload=np.zeros(1000, dtype=np.float64),
                          nelems=1000)
        header = ev.encode_rts(env)
        out = ev.decode(header, b"")
        assert out.kind == ev.KIND_RTS
        assert out.payload is None
        assert out.rndv_nbytes == 8000
        assert out.rndv_dtype == np.dtype(np.float64)
        assert out.payload_nbytes() == 8000   # what probes report
        assert (out.src, out.dst, out.context, out.tag, out.seq) == \
            (1, 0, 3, 9, 12)


    def test_rts_cookie_rides_as_the_body_and_decodes_owned(self):
        """A ``FLAG_CMA`` RTS carries the payload's address table as its
        body — never mistaken for payload, and copied out of the (pooled)
        frame buffer, because an unexpected RTS outlives it."""
        env = ev.Envelope(src=1, dst=0, context=3, tag=9, seq=12,
                          payload=np.zeros(1000, dtype=np.float64),
                          nelems=1000)
        table = np.array([[0x7f0000001000, 4096], [0x7f0000003000, 3904]],
                         dtype=np.uint64)
        header = ev.encode_rts(env, table)
        flags, nbytes = ev.HEADER.unpack(header)[8], \
            ev.HEADER.unpack(header)[10]
        assert flags == ev.FLAG_CMA and nbytes == table.nbytes == 32
        frame = bytearray(memoryview(table).cast("B"))
        out = ev.decode(header, frame)
        assert out.kind == ev.KIND_RTS and out.payload is None
        assert (out.rndv_nbytes, out.rndv_dtype) == (8000, np.dtype("f8"))
        frame[:] = bytes(len(frame))            # the pool moves on
        assert out.rndv_cookie.tolist() == table.tolist()
        assert out.claim() is out               # nothing borrowed left
        # without a table: header only, no offer
        plain = ev.decode(ev.encode_rts(env), b"")
        assert plain.rndv_cookie is None


class TestIOVecPayload:
    """Noncontiguous zero-copy sends: the run-iovec wire form."""

    def _iovec_env(self):
        buf = np.arange(12, dtype=np.int64)
        mv = memoryview(buf).cast("B")
        views = [mv[0:16], mv[32:48], mv[64:80]]   # elements 0,1 4,5 8,9
        payload = ev.IOVecPayload(views, np.dtype(np.int64))
        return buf, ev.Envelope(payload=payload, nelems=6)

    def test_nbytes_and_probe_size(self):
        _, env = self._iovec_env()
        assert env.payload.nbytes == 48
        assert env.payload_nbytes() == 48

    def test_encode_passes_views_through(self):
        buf, env = self._iovec_env()
        header, body = ev.encode(env)
        assert isinstance(body, list) and len(body) == 3
        buf[0] = -5   # views alias the user buffer, no copy
        assert bytes(body[0][:8]) == np.int64(-5).tobytes()
        # the header announces the total payload size and real dtype,
        # so the receiver decodes it exactly like a dense frame
        out = ev.decode(header, b"".join(bytes(v) for v in body))
        assert list(out.payload) == [-5, 1, 4, 5, 8, 9]
        assert out.nelems == 6

    def test_rts_from_iovec_payload(self):
        _, env = self._iovec_env()
        header = ev.encode_rts(env)
        out = ev.decode(header, b"")
        assert out.rndv_nbytes == 48
        assert out.rndv_dtype == np.dtype(np.int64)
