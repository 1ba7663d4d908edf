"""Wire fast-path semantics: the protocol must never change the answers.

Eager and rendezvous are *transport* decisions; MPI semantics (results,
non-overtaking order, wildcard matching, Ssend completion) must be
identical on either side of the threshold, on every backend.  These
tests sweep the eager limit across message-size boundaries and assert
blocking-equivalence, exercise ``ANY_SOURCE``/``ANY_TAG`` against the
hash-indexed mailbox, prove the rendezvous path performs zero staging
copies for contiguous receives (copy-count and bytes-on-wire), and pin
the Ssend-completes-no-earlier-than-match rule.
"""

import threading
import time

import numpy as np
import pytest

from repro.executor.runner import MPIExecutor
from repro.runtime.engine import Universe
from repro.transport import wire
from repro.transport.inproc import InprocTransport
from repro.transport.socket_tcp import SocketTransport

SIZES_AROUND_THRESHOLD = (1, 1024, 4095, 4096, 8192, 65536, 200_000)


@pytest.fixture
def eager_limit_guard():
    prev = wire.eager_limit()
    yield
    wire.set_eager_limit(prev)


def _make_universe(backend: str, nprocs: int) -> Universe:
    if backend == "threads-SM":
        return Universe(nprocs, transport=InprocTransport(nprocs))
    return Universe(nprocs, transport=SocketTransport(nprocs))


# -- kernel bodies (module-level so the proc backend can import them) ---------

def _exchange_body(limit, sizes, seed):
    """Deterministic multi-pattern exchange; returns rank 0's digest."""
    from repro.jni import capi, handles as H
    from repro.transport import wire as W
    if limit is not None:
        W.set_eager_limit(limit)
    capi.mpi_init([])
    rank = capi.mpi_comm_rank(H.COMM_WORLD)
    digest = []
    for size in sizes:
        rng = np.random.default_rng(seed + size)
        data = rng.integers(0, 127, size=size).astype(np.int8)
        buf = np.zeros(size, dtype=np.int8)
        if rank == 0:
            # two back-to-back sends, same pair, distinct tags:
            # non-overtaking must hold across the protocol split
            capi.mpi_send(H.COMM_WORLD, data, 0, size, H.DT_BYTE, 1, 7)
            capi.mpi_send(H.COMM_WORLD, (data + 1) % 127, 0, size,
                          H.DT_BYTE, 1, 7)
            capi.mpi_recv(H.COMM_WORLD, buf, 0, size, H.DT_BYTE, 1, 8)
            digest.append(int(buf.astype(np.int64).sum()))
        else:
            a = np.zeros(size, dtype=np.int8)
            b = np.zeros(size, dtype=np.int8)
            capi.mpi_recv(H.COMM_WORLD, a, 0, size, H.DT_BYTE, 0, 7)
            capi.mpi_recv(H.COMM_WORLD, b, 0, size, H.DT_BYTE, 0, 7)
            # same-tag pair: arrival order == send order (non-overtaking)
            assert np.array_equal(a, data), "first same-tag message wrong"
            assert np.array_equal(b, (data + 1) % 127), \
                "second same-tag message wrong (overtaking?)"
            capi.mpi_send(H.COMM_WORLD, ((a.astype(np.int16)
                                          + b) % 127).astype(np.int8),
                          0, size, H.DT_BYTE, 0, 8)
        capi.mpi_barrier(H.COMM_WORLD)
    capi.mpi_finalize()
    return digest if rank == 0 else None


def _wildcard_body(limit):
    """ANY_SOURCE/ANY_TAG against indexed matching, all protocol modes."""
    from repro.jni import capi, handles as H
    from repro.runtime.consts import ANY_SOURCE, ANY_TAG
    from repro.transport import wire as W
    if limit is not None:
        W.set_eager_limit(limit)
    capi.mpi_init([])
    rank = capi.mpi_comm_rank(H.COMM_WORLD)
    size = capi.mpi_comm_size(H.COMM_WORLD)
    n = 5000
    if rank == 0:
        got = []
        buf = np.zeros(n, dtype=np.int32)
        # any-source, fixed tag: one message per peer
        for _ in range(size - 1):
            st = capi.mpi_recv(H.COMM_WORLD, buf, 0, n, H.DT_INT,
                               ANY_SOURCE, 5)
            assert np.all(buf == st.source), "payload/source mismatch"
            got.append(st.source)
        assert sorted(got) == list(range(1, size)), got
        # fixed source, any tag: same-pair order must be send order
        tags = []
        for _ in range(3):
            st = capi.mpi_recv(H.COMM_WORLD, buf, 0, n, H.DT_INT, 1,
                               ANY_TAG)
            tags.append(st.tag)
        assert tags == [11, 13, 12], f"arrival order broken: {tags}"
        # any-any drains the rest
        rest = []
        for _ in range(size - 1):
            st = capi.mpi_recv(H.COMM_WORLD, buf, 0, n, H.DT_INT,
                               ANY_SOURCE, ANY_TAG)
            rest.append((st.source, st.tag))
        assert sorted(rest) == [(r, 99) for r in range(1, size)], rest
    else:
        data = np.full(n, rank, dtype=np.int32)
        capi.mpi_send(H.COMM_WORLD, data, 0, n, H.DT_INT, 0, 5)
        if rank == 1:
            for tag in (11, 13, 12):
                capi.mpi_send(H.COMM_WORLD, data, 0, n, H.DT_INT, 0, tag)
        capi.mpi_send(H.COMM_WORLD, data, 0, n, H.DT_INT, 0, 99)
    capi.mpi_barrier(H.COMM_WORLD)
    capi.mpi_finalize()
    return True


def _ssend_body(limit, size):
    """Ssend must not complete before the matching receive is posted."""
    from repro.jni import capi, handles as H
    from repro.transport import wire as W
    import time as _time
    if limit is not None:
        W.set_eager_limit(limit)
    capi.mpi_init([])
    rank = capi.mpi_comm_rank(H.COMM_WORLD)
    delay = 0.25
    if rank == 0:
        buf = np.ones(size, dtype=np.int8)
        capi.mpi_barrier(H.COMM_WORLD)
        t0 = _time.perf_counter()
        capi.mpi_ssend(H.COMM_WORLD, buf, 0, size, H.DT_BYTE, 1, 3)
        elapsed = _time.perf_counter() - t0
        capi.mpi_barrier(H.COMM_WORLD)
        capi.mpi_finalize()
        return elapsed
    buf = np.zeros(size, dtype=np.int8)
    capi.mpi_barrier(H.COMM_WORLD)
    _time.sleep(delay)           # hold the match back
    capi.mpi_recv(H.COMM_WORLD, buf, 0, size, H.DT_BYTE, 0, 3)
    assert np.all(buf == 1)
    capi.mpi_barrier(H.COMM_WORLD)
    capi.mpi_finalize()
    return None


BACKENDS = ("threads-SM", "threads-DM", "procs-DM")

#: eager limits that put the test sizes on every side of the threshold
LIMIT_POINTS = (1, 4096, 65536, 1 << 62)


def _run(backend, body, args, nprocs=2):
    if backend == "procs-DM":
        from repro.executor.procrunner import ProcExecutor
        with ProcExecutor(nprocs) as ex:
            return ex.run(body, args=args, timeout=120.0)
    with MPIExecutor(nprocs,
                     universe=_make_universe(backend, nprocs)) as ex:
        return ex.run(body, args=args)


class TestBlockingEquivalence:
    """Same program, every threshold position, identical results."""

    @pytest.mark.parametrize("backend", ("threads-SM", "threads-DM"))
    def test_exchange_equivalent_across_thresholds(self, backend,
                                                   eager_limit_guard):
        digests = []
        for limit in LIMIT_POINTS:
            out = _run(backend, _exchange_body,
                       (limit, SIZES_AROUND_THRESHOLD, 42))
            digests.append(out[0])
        assert all(d == digests[0] for d in digests), \
            f"results differ across eager limits: {digests}"

    def test_exchange_equivalent_procs_dm(self, eager_limit_guard):
        # the proc backend spawns real processes; two threshold points
        # (pure-eager, pure-rendezvous) keep the runtime bounded
        digests = [_run("procs-DM", _exchange_body,
                        (limit, (4096, 200_000), 42))[0]
                   for limit in (1 << 62, 1)]
        assert digests[0] == digests[1]


class TestWildcards:
    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("limit", (1, 1 << 62))
    def test_wildcard_matching(self, backend, limit, eager_limit_guard):
        nprocs = 2 if backend == "procs-DM" else 4
        assert all(_run(backend, _wildcard_body, (limit,),
                        nprocs=nprocs))


class TestSsendSemantics:
    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("size", (64, 200_000))
    def test_ssend_completes_no_earlier_than_match(self, backend, size,
                                                   eager_limit_guard):
        wire.set_eager_limit(65536)   # 64 -> eager-ACK, 200k -> rendezvous
        out = _run(backend, _ssend_body, (65536, size))
        elapsed = out[0]
        assert elapsed >= 0.2, \
            f"Ssend completed {elapsed:.3f}s after start, before the " \
            f"receiver posted (delay 0.25s)"


def _shm_world(**sizes):
    from repro.transport.shm import shm_world
    return shm_world(2, **sizes)


#: the one wire transport over its three same-host bulk paths: none
#: (``socket``), the shared-memory lane (``ring``: probes denied) and
#: the single-copy get (``cma``).  The lane is kept small: a frame at
#: or above the eager limit that fits the lane whole stays eager, and
#: the rendezvous proofs need the RTS/CTS path to actually run (their
#: payloads then stream through the lane)
CARRIERS = ("socket", "ring", "cma")


@pytest.fixture
def make_carrier(request):
    def make(carrier, rndv=64 * 1024):
        if carrier == "socket":
            return SocketTransport(2)
        request.getfixturevalue("cma_denied" if carrier == "ring"
                                else "cma_capable")
        return _shm_world(rndv=rndv)
    return make


def _assert_bulk_path(transport, carrier, frames, nbytes):
    """The rendezvous payloads went where the carrier's name says: read
    in place (the get counters move, no writer ever stalls on a lane,
    and nothing but headers and cookies is written to a stream), or
    written out once through the lane / the socket."""
    s = transport.wire_stats.snapshot()
    if carrier == "cma":
        assert s["rndv_get_frames"] == frames, s
        assert s["rndv_get_bytes"] == nbytes, s
        assert s["stall_sleeps"] == 0, s
        assert s["tx_bytes"] < 4096, s
    else:
        assert s["rndv_get_frames"] == 0, s
        assert s["tx_bytes"] >= nbytes, s


@pytest.mark.parametrize("carrier", CARRIERS)
class TestZeroCopyProof:
    """Copy-count / bytes-on-wire, identical on every carrier: posted
    eager receives direct-land from the frame stream, rendezvous
    payloads move (over the bulk lane, or read in place, where the pair
    can) straight into the posted buffer —
    contiguous and strided alike — with zero staging copies and exactly
    one payload traversal."""

    def test_rendezvous_contiguous_recv_is_zero_staging(self, carrier,
                                                        make_carrier,
                                                        eager_limit_guard):
        wire.set_eager_limit(1024)
        n = 1 << 20
        transport = make_carrier(carrier)

        def body(n):
            from repro.jni import capi, handles as H
            capi.mpi_init([])
            rank = capi.mpi_comm_rank(H.COMM_WORLD)
            if rank == 0:
                buf = np.arange(n, dtype=np.float64)
                capi.mpi_send(H.COMM_WORLD, buf, 0, n, H.DT_DOUBLE, 1, 2)
            else:
                buf = np.zeros(n, dtype=np.float64)
                capi.mpi_recv(H.COMM_WORLD, buf, 0, n, H.DT_DOUBLE, 0, 2)
                assert np.array_equal(buf, np.arange(n, dtype=np.float64))
            capi.mpi_finalize()
            return True

        with MPIExecutor(2, universe=Universe(2,
                                              transport=transport)) as ex:
            ex.run(body, args=(n,))
        s = transport.wire_stats.snapshot()
        payload = n * 8
        assert s["rndv_direct_frames"] == 1, s
        assert s["rndv_direct_bytes"] == payload, s
        # zero staging copies anywhere on the payload path
        assert s["rndv_staged_frames"] == 0, s
        assert s["rndv_staged_bytes"] == 0, s
        # bytes-on-wire: the payload crossed exactly once (plus control
        # frames and the finalize-barrier tokens, all header-sized)
        assert s["tx_bytes"] < payload + 4096, s
        assert s["rts_frames"] == 1 and s["cts_frames"] == 1, s
        _assert_bulk_path(transport, carrier, 1, payload)

    def test_eager_posted_contiguous_recv_is_zero_staging(
            self, carrier, make_carrier, eager_limit_guard):
        wire.set_eager_limit(1 << 62)
        n = 1 << 18
        transport = make_carrier(carrier)
        start = threading.Barrier(2, timeout=10)

        def body(n):
            from repro.jni import capi, handles as H
            capi.mpi_init([])
            rank = capi.mpi_comm_rank(H.COMM_WORLD)
            if rank == 0:
                start.wait()
                time.sleep(0.2)   # let rank 1 post the receive first
                buf = np.ones(n, dtype=np.int8)
                capi.mpi_send(H.COMM_WORLD, buf, 0, n, H.DT_BYTE, 1, 2)
            else:
                buf = np.zeros(n, dtype=np.int8)
                start.wait()
                capi.mpi_recv(H.COMM_WORLD, buf, 0, n, H.DT_BYTE, 0, 2)
                assert np.all(buf == 1)
            capi.mpi_finalize()
            return True

        with MPIExecutor(2, universe=Universe(2,
                                              transport=transport)) as ex:
            ex.run(body, args=(n,))
        s = transport.wire_stats.snapshot()
        assert s["eager_direct_frames"] == 1, s
        assert s["eager_direct_bytes"] == n, s

    # strided shape for the derived-datatype proofs: 8 KiB float64
    # runs at 50% density (a Vector the layout IR compiles to run views)
    _COUNT, _BLOCK, _STRIDE = 16, 1024, 2048

    @classmethod
    def _strided_payload_bytes(cls):
        return cls._COUNT * cls._BLOCK * 8

    def test_rendezvous_strided_recv_is_zero_staging(self, carrier,
                                                     make_carrier,
                                                     eager_limit_guard):
        """A derived-datatype rendezvous must stream every payload byte
        straight into the posted strided buffer: no gather copy on the
        sender (iovec send borrows the user buffer), no staging or
        scatter on the receiver (per-run recv_into), and the payload
        crosses the wire exactly once."""
        wire.set_eager_limit(1024)
        transport = make_carrier(carrier)
        count, block, stride = self._COUNT, self._BLOCK, self._STRIDE

        def body():
            from repro.jni import capi, handles as H
            capi.mpi_init([])
            rank = capi.mpi_comm_rank(H.COMM_WORLD)
            vec = capi.mpi_type_vector(count, block, stride, H.DT_DOUBLE)
            capi.mpi_type_commit(vec)
            span = (count - 1) * stride + block
            if rank == 0:
                buf = np.arange(span, dtype=np.float64)
                capi.mpi_send(H.COMM_WORLD, buf, 0, 1, vec, 1, 2)
            else:
                buf = np.full(span, -1.0, dtype=np.float64)
                capi.mpi_recv(H.COMM_WORLD, buf, 0, 1, vec, 0, 2)
                ref = np.full(span, -1.0)
                for i in range(count):
                    ref[i * stride:i * stride + block] = \
                        np.arange(i * stride, i * stride + block)
                assert np.array_equal(buf, ref), \
                    "strided rendezvous landed wrong bytes"
            capi.mpi_finalize()
            return True

        with MPIExecutor(2, universe=Universe(2,
                                              transport=transport)) as ex:
            ex.run(body)
        s = transport.wire_stats.snapshot()
        payload = self._strided_payload_bytes()
        assert s["rts_frames"] == 1 and s["cts_frames"] == 1, s
        assert s["rndv_direct_frames"] == 1, s
        assert s["rndv_direct_bytes"] == payload, s
        # zero staging copies anywhere on the payload path
        assert s["rndv_staged_frames"] == 0, s
        assert s["rndv_staged_bytes"] == 0, s
        # bytes-on-wire: the strided payload crossed exactly once (plus
        # header-sized control frames and finalize-barrier tokens)
        assert s["tx_bytes"] < payload + 4096, s
        _assert_bulk_path(transport, carrier, 1, payload)

    def test_eager_posted_strided_recv_is_zero_staging(
            self, carrier, make_carrier, eager_limit_guard):
        """Below the rendezvous threshold, a posted strided receive
        direct-lands the eager frame through its run views."""
        wire.set_eager_limit(1 << 62)
        transport = make_carrier(carrier)
        start = threading.Barrier(2, timeout=10)
        count, block, stride = self._COUNT, self._BLOCK, self._STRIDE

        def body():
            from repro.jni import capi, handles as H
            capi.mpi_init([])
            rank = capi.mpi_comm_rank(H.COMM_WORLD)
            vec = capi.mpi_type_vector(count, block, stride, H.DT_DOUBLE)
            capi.mpi_type_commit(vec)
            span = (count - 1) * stride + block
            if rank == 0:
                start.wait()
                time.sleep(0.2)   # let rank 1 post the receive first
                buf = np.ones(span, dtype=np.float64)
                capi.mpi_send(H.COMM_WORLD, buf, 0, 1, vec, 1, 2)
            else:
                buf = np.zeros(span, dtype=np.float64)
                start.wait()
                capi.mpi_recv(H.COMM_WORLD, buf, 0, 1, vec, 0, 2)
                sel = np.zeros(span, dtype=bool)
                for i in range(count):
                    sel[i * stride:i * stride + block] = True
                assert np.all(buf[sel] == 1) and np.all(buf[~sel] == 0)
            capi.mpi_finalize()
            return True

        with MPIExecutor(2, universe=Universe(2,
                                              transport=transport)) as ex:
            ex.run(body)
        s = transport.wire_stats.snapshot()
        payload = self._strided_payload_bytes()
        assert s["eager_direct_frames"] == 1, s
        assert s["eager_direct_bytes"] == payload, s


def test_payload_larger_than_lane_streams_through(make_carrier,
                                                  eager_limit_guard):
    """Header-first rendezvous: a payload bigger than the whole lane
    must flow through it (the receiver drains while the sender
    streams), still landing direct."""
    wire.set_eager_limit(1024)
    n = 2 << 20                            # 2 MiB payload ...
    transport = make_carrier("ring")       # ... 64 KiB lane

    def body(n):
        from repro.jni import capi, handles as H
        capi.mpi_init([])
        rank = capi.mpi_comm_rank(H.COMM_WORLD)
        ref = (np.arange(n) % 127).astype(np.int8)
        if rank == 0:
            capi.mpi_send(H.COMM_WORLD, ref.copy(), 0, n, H.DT_BYTE,
                          1, 2)
        else:
            buf = np.zeros(n, dtype=np.int8)
            capi.mpi_recv(H.COMM_WORLD, buf, 0, n, H.DT_BYTE, 0, 2)
            assert np.array_equal(buf, ref)
        capi.mpi_finalize()
        return True

    with MPIExecutor(2, universe=Universe(2,
                                          transport=transport)) as ex:
        ex.run(body, args=(n,))
    s = transport.wire_stats.snapshot()
    assert s["rndv_direct_frames"] == 1, s
    assert s["rndv_direct_bytes"] == n, s
    assert s["rndv_staged_frames"] == 0, s
    _assert_bulk_path(transport, "ring", 1, n)


# -- the get against the ring against the packing oracle ----------------------

def _gen_layout(rng):
    """A Vector or Indexed of doubles: ``(spec, size_elems)``.  Blocks
    run from a few elements (wire-unfriendly: dense gather on send,
    staged landing on receive) to a few hundred (iovec send, per-run
    direct landing)."""
    big = bool(rng.integers(0, 2))
    lo, hi = (64, 400) if big else (1, 9)
    if rng.integers(0, 2):
        count, block = int(rng.integers(2, 9)), int(rng.integers(lo, hi))
        stride = block + int(rng.integers(0, 2)) * int(rng.integers(1, hi))
        return ("vector", count, block, stride), count * block
    blocks = [int(rng.integers(lo, hi)) for _ in range(rng.integers(2, 7))]
    disps, at = [], 0
    for b in blocks:
        disps.append(at)
        at += b + int(rng.integers(0, hi))
    return ("indexed", tuple(blocks), tuple(disps)), sum(blocks)


def gen_get_cases(seed, n):
    """Exchanges ``(send_spec, send_count, recv_spec, recv_count,
    recv_kind)``: any send layout into any receive layout, the message
    usually ending inside the last receive instance (a partial trailing
    instance); ``truncate`` posts too little room, ``mismatch`` posts
    the right room in the wrong dtype."""
    rng = np.random.default_rng(seed)
    cases = []
    for i in range(n):
        send, ssize = _gen_layout(rng)
        recv, rsize = _gen_layout(rng)
        scount = int(rng.integers(1, 4)) * max(1, 256 // ssize)
        need = -(-scount * ssize // rsize)          # instances that fit it
        kind = ("ok", "ok", "ok", "truncate", "mismatch")[i % 5]
        rcount = max(0, need - 1) if kind == "truncate" \
            else need + int(rng.integers(0, 2))
        cases.append((send, scount, recv, rcount, kind))
    return cases


def _get_cases_body(cases, seed):
    """Rank 0 sends every case, rank 1 receives it into a sentinel-
    filled buffer under ERRORS_RETURN; rank 1 returns, per case,
    ``(error code, elements received, the whole receive buffer)``."""
    from repro.errors import MPIException
    from repro.mpijava import MPI
    MPI.Init([])
    w = MPI.COMM_WORLD
    w.Errhandler_set(MPI.ERRORS_RETURN)
    rank = w.Rank()
    rng = np.random.default_rng(seed)
    out = []

    def make(spec, base):
        t = base.Vector(*spec[1:]) if spec[0] == "vector" \
            else base.Indexed(list(spec[1]), list(spec[2]))
        return t.Commit()

    for tag, (send, scount, recv, rcount, kind) in enumerate(cases):
        stype = make(send, MPI.DOUBLE)
        sbuf = rng.random(scount * stype.Extent() // 8 + 8)
        if rank == 0:
            w.Send(sbuf, 3, scount, stype, 1, tag)
        else:
            base = MPI.LONG if kind == "mismatch" else MPI.DOUBLE
            rtype = make(recv, base)
            rbuf = np.full(rcount * rtype.Extent() // 8 + 8, -1.0).view(
                np.int64 if kind == "mismatch" else np.float64)
            try:
                st = w.Recv(rbuf, 5, rcount, rtype, 0, tag)
                out.append((0, st.Get_elements(MPI.DOUBLE), rbuf))
            except MPIException as exc:
                out.append((exc.error_code, 0, rbuf))
            rtype.Free()
        stype.Free()
        w.Barrier()
    MPI.Finalize()
    return out


class TestGetLandsWhatTheRingLands:
    """The single-copy get is a transport decision like eager vs
    rendezvous: for generated send/receive layout pairs it must land
    byte-for-byte what the ring lands and what the flat-index packing
    oracle predicts — gaps of strided receive buffers untouched, the
    proper MPI error for receives that cannot take the message — and
    keep the zero-copy proofs: every landable receive is read straight
    into the user buffer, nothing staged."""

    LIMIT = 1024

    @staticmethod
    def _impl(spec):
        from repro.datatypes import derived, primitives as P
        t = derived.vector(*spec[1:], P.DOUBLE) if spec[0] == "vector" \
            else derived.indexed(list(spec[1]), list(spec[2]), P.DOUBLE)
        t.commit()
        return t

    def _oracle(self, cases, seed):
        """Per case: (error, elements, buffer) by flat-index gather and
        scatter, plus whether the message handshakes and whether the
        receive can take it in place."""
        from repro.errors import ERR_TRUNCATE, ERR_TYPE
        rng = np.random.default_rng(seed)
        want = []
        for send, scount, recv, rcount, kind in cases:
            st, rt = self._impl(send), self._impl(recv)
            sbuf = rng.random(scount * st.extent_elems + 8)
            dense = sbuf[st.flat_indices(scount, 3)]
            ref = np.full(rcount * rt.extent_elems + 8, -1.0)
            rndv = dense.nbytes >= self.LIMIT
            if kind == "ok":
                ref[rt.flat_indices(rcount, 5)[:len(dense)]] = dense
                landable = rt.layout().contiguous \
                    or rt.layout().wire_friendly(len(dense))
                want.append((0, len(dense), ref, rndv, landable))
            else:
                code = ERR_TRUNCATE if kind == "truncate" else ERR_TYPE
                want.append((code, 0, ref, rndv, False))
        return want

    @pytest.mark.parametrize("seed", (14, 1999))
    def test_generated_layout_pairs(self, seed, make_carrier,
                                    eager_limit_guard):
        wire.set_eager_limit(self.LIMIT)
        cases = gen_get_cases(seed, 25)
        want = self._oracle(cases, seed + 1)
        got, stats = {}, {}
        for carrier in ("ring", "cma"):
            # a lane no rendezvous-sized frame fits whole, so the ring
            # carrier handshakes (and streams) wherever the get does
            transport = make_carrier(carrier, rndv=self.LIMIT)
            with MPIExecutor(2, universe=Universe(
                    2, transport=transport)) as ex:
                got[carrier] = ex.run(_get_cases_body,
                                      args=(cases, seed + 1))[1]
            stats[carrier] = transport.wire_stats.snapshot()
        rndv = sum(w[3] for w in want)
        direct = sum(w[3] and w[4] for w in want)
        assert rndv >= 15 and 0 < direct < rndv, \
            "generator stopped covering both landings"
        for carrier in ("ring", "cma"):
            for case, (code, nelems, buf), w in zip(cases, got[carrier],
                                                    want):
                assert (code, nelems) == w[:2], (carrier, case)
                assert np.array_equal(buf.view(np.float64), w[2]), \
                    (carrier, case)
            s = stats[carrier]
            assert s["rts_frames"] == rndv, s
            assert s["rndv_direct_frames"] == direct, s
            assert s["rndv_staged_frames"] == rndv - direct, s
        assert stats["ring"]["rndv_get_frames"] == 0, stats["ring"]
        s = stats["cma"]
        assert s["rndv_get_frames"] == rndv, s
        assert s["rndv_get_bytes"] \
            == s["rndv_direct_bytes"] + s["rndv_staged_bytes"], s
        assert s["stall_sleeps"] == 0, s


class TestLargePairReduction:
    """Regression: size-aware selection must not hand MINLOC/MAXLOC to
    the ring algorithm — its per-element chunk bounds would split the
    interleaved (value, index) pairs (crash on odd splits, silent
    value/index role swap on even-but-shifted ones)."""

    @pytest.mark.parametrize("nprocs", (3, 4))
    def test_large_minloc_allreduce(self, nprocs):
        def body():
            from repro.jni import capi, handles as H
            capi.mpi_init([])
            rank = capi.mpi_comm_rank(H.COMM_WORLD)
            size = capi.mpi_comm_size(H.COMM_WORLD)
            npairs = 200_000   # 1.6 MB: deep in the size-aware band
            vals = np.empty(2 * npairs, dtype=np.int32)
            vals[0::2] = (np.arange(npairs) + rank * 7) % 1000
            vals[1::2] = rank
            out = np.zeros_like(vals)
            capi.mpi_allreduce(H.COMM_WORLD, vals, 0, out, 0, npairs,
                               H.DT_INT2, H.OP_MINLOC)
            per_rank = np.stack([(np.arange(npairs) + r * 7) % 1000
                                 for r in range(size)])
            assert np.array_equal(out[0::2], per_rank.min(axis=0))
            assert np.array_equal(out[1::2], per_rank.argmin(axis=0))
            capi.mpi_finalize()
            return True

        with MPIExecutor(nprocs,
                         universe=_make_universe("threads-DM",
                                                 nprocs)) as ex:
            assert all(ex.run(body))


class TestSendBufferReuseSafety:
    """Zero-copy sends borrow the user buffer; the request must not
    complete until the wire is done with it (mutate-after-wait test)."""

    @pytest.mark.parametrize("limit", (1, 1 << 62))
    def test_isend_buffer_mutation_after_wait_is_safe(self, limit,
                                                      eager_limit_guard):
        wire.set_eager_limit(limit)
        n = 1 << 19

        def body(n):
            from repro.jni import capi, handles as H
            import time as _time
            capi.mpi_init([])
            rank = capi.mpi_comm_rank(H.COMM_WORLD)
            if rank == 0:
                buf = np.full(n, 7, dtype=np.int8)
                req = capi.mpi_isend(H.COMM_WORLD, buf, 0, n, H.DT_BYTE,
                                     1, 2)
                capi.mpi_wait(req)
                buf[:] = 99          # MPI-legal: request completed
            else:
                _time.sleep(0.1)     # receive posted after the send
                buf = np.zeros(n, dtype=np.int8)
                capi.mpi_recv(H.COMM_WORLD, buf, 0, n, H.DT_BYTE, 0, 2)
                assert np.all(buf == 7), \
                    "receiver observed sender's post-wait mutation"
            capi.mpi_finalize()
            return True

        with MPIExecutor(2, universe=_make_universe("threads-DM",
                                                    2)) as ex:
            assert all(ex.run(body, args=(n,)))
