"""Transport-level behaviour tested without the full MPI stack."""

import threading

import numpy as np
import pytest

from repro.runtime.envelope import Envelope, KIND_DATA
from repro.transport.chunked import ChunkedTransport
from repro.transport.inproc import InprocTransport
from repro.transport.modeled import ModeledTransport
from repro.transport.netmodel import ENVIRONMENTS
from repro.transport.socket_tcp import SocketTransport
from repro.transport import make_transport
from repro.util.clock import VirtualClock


def collect(transport, rank):
    got = []
    transport.set_deliver(rank, got.append)
    return got


class TestInproc:
    def test_direct_delivery(self):
        tr = InprocTransport(2)
        got = collect(tr, 1)
        env = Envelope(src=0, dst=1, payload=np.arange(3, dtype=np.int64),
                       nelems=3)
        tr.send(env)
        assert got and got[0] is env
        assert tr.mode == "SM"

    def test_missing_mailbox_raises(self):
        tr = InprocTransport(2)
        with pytest.raises(RuntimeError):
            tr.send(Envelope(src=0, dst=1))

    def test_broadcast_control(self):
        tr = InprocTransport(3)
        sinks = [collect(tr, r) for r in range(3)]
        tr.broadcast_control(Envelope(kind=2, src=0))
        assert all(len(s) == 1 for s in sinks)


class TestChunked:
    def test_payload_copied_not_aliased(self):
        tr = ChunkedTransport(2, packet_bytes=8)
        got = collect(tr, 1)
        data = np.arange(10, dtype=np.int32)
        tr.send(Envelope(src=0, dst=1, payload=data, nelems=10))
        assert np.array_equal(got[0].payload, data)
        assert got[0].payload is not data

    def test_packet_accounting(self):
        tr = ChunkedTransport(2, packet_bytes=8)  # 2 int32 per packet
        collect(tr, 1)
        tr.send(Envelope(src=0, dst=1,
                         payload=np.arange(10, dtype=np.int32), nelems=10))
        assert tr.metrics.snapshot()["packets_staged"] == 5

    def test_object_payload_staged(self):
        tr = ChunkedTransport(2, packet_bytes=4)
        got = collect(tr, 1)
        tr.send(Envelope(src=0, dst=1, payload=b"hello world", nelems=1,
                         is_object=True))
        assert bytes(got[0].payload) == b"hello world"

    def test_bad_packet_size_rejected(self):
        with pytest.raises(ValueError):
            ChunkedTransport(2, packet_bytes=0)

    def test_mode_follows_inner(self):
        sm = ChunkedTransport(2)
        assert sm.mode == "SM"

    def test_packet_accounting_is_race_free_under_concurrent_sends(self):
        # multiple rank threads stage packets concurrently; a bare
        # ``+= 1`` per packet loses increments and under-reports
        tr = ChunkedTransport(2, packet_bytes=8)  # 2 int32 per packet
        collect(tr, 0)
        collect(tr, 1)
        sends_per_thread, packets_per_send = 200, 5
        payload = np.arange(10, dtype=np.int32)  # 5 packets

        def sender(dst):
            for _ in range(sends_per_thread):
                tr.send(Envelope(src=1 - dst, dst=dst, payload=payload,
                                 nelems=10))

        threads = [threading.Thread(target=sender, args=(d,))
                   for d in (0, 1, 0, 1)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert tr.metrics.snapshot()["packets_staged"] == \
            len(threads) * sends_per_thread * packets_per_send


class TestSocket:
    def test_roundtrip_frames(self):
        tr = SocketTransport(2)
        got1 = collect(tr, 1)
        collect(tr, 0)
        tr.start()
        try:
            arrived = threading.Event()
            tr.set_deliver(1, lambda e: (got1.append(e), arrived.set()))
            data = np.arange(100, dtype=np.float64)
            tr.send(Envelope(src=0, dst=1, context=3, tag=7, payload=data,
                             nelems=100))
            assert arrived.wait(timeout=5)
            env = got1[-1]
            assert env.tag == 7 and env.context == 3
            assert np.array_equal(np.asarray(env.payload), data)
        finally:
            tr.close()

    def test_self_send_loopback(self):
        tr = SocketTransport(2)
        got0 = collect(tr, 0)
        collect(tr, 1)
        tr.start()
        try:
            tr.send(Envelope(src=0, dst=0, payload=None, nelems=0))
            assert len(got0) == 1  # delivered synchronously, no wire
        finally:
            tr.close()

    def test_per_pair_fifo(self):
        tr = SocketTransport(2)
        collect(tr, 0)
        seen = []
        done = threading.Event()

        def sink(env):
            seen.append(env.tag)
            if len(seen) == 50:
                done.set()

        tr.set_deliver(1, sink)
        tr.start()
        try:
            for i in range(50):
                tr.send(Envelope(src=0, dst=1, tag=i))
            assert done.wait(timeout=5)
            assert seen == list(range(50))
        finally:
            tr.close()

    def test_close_idempotent(self):
        tr = SocketTransport(2)
        tr.start()
        tr.close()
        tr.close()


class TestTCPMesh:
    """The process-backend carrier, exercised in-process: the ranks of
    one job over the mesh its proxy builds before forking them."""

    @staticmethod
    def _rows(n):
        from repro.transport.socket_tcp import mesh, tcp_pair
        with socket.create_server(("127.0.0.1", 0)) as listener:
            return mesh(n, lambda: tcp_pair(listener))

    @classmethod
    def _make_pair(cls, n=2):
        from repro.transport.socket_tcp import TCPMeshTransport
        return [TCPMeshTransport(n, rank, row)
                for rank, row in enumerate(cls._rows(n))]

    def test_each_pair_is_connected_end_to_end_without_nagle(self):
        rows = self._rows(4)
        try:
            for rank, row in enumerate(rows):
                assert sorted(row) == [r for r in range(4) if r != rank]
                for peer, sock in row.items():
                    assert sock.getpeername() \
                        == rows[peer][rank].getsockname()
                    assert sock.getsockopt(socket.IPPROTO_TCP,
                                           socket.TCP_NODELAY)
                    assert sock.getblocking()
        finally:
            for row in rows:
                for sock in row.values():
                    sock.close()

    def test_a_stray_connection_is_not_taken_as_a_pair(self):
        """Anything local may connect to the builder's listener; what
        it accepts is one end of a pair only if the far end is the
        builder's own dialer."""
        from repro.transport.socket_tcp import mesh, tcp_pair
        with socket.create_server(("127.0.0.1", 0)) as listener:
            stray = socket.create_connection(listener.getsockname())
            rows = mesh(3, lambda: tcp_pair(listener))
        try:
            ours = {sock.getsockname() for row in rows
                    for sock in row.values()}
            assert stray.getsockname() not in {
                sock.getpeername() for row in rows for sock in row.values()}
            for rank, row in enumerate(rows):
                for peer, sock in row.items():
                    assert sock.getpeername() in ours
                    assert sock.getpeername() \
                        == rows[peer][rank].getsockname()
            stray.settimeout(5)
            assert stray.recv(1) == b"", "the stray was not closed"
        finally:
            stray.close()
            for row in rows:
                for sock in row.values():
                    sock.close()

    def test_frames_cross_the_mesh(self):
        t0, t1 = self._make_pair()
        try:
            got = []
            arrived = threading.Event()
            t1.set_deliver(1, lambda e: (got.append(e), arrived.set()))
            t0.set_deliver(0, lambda e: None)
            t0.start()
            t1.start()
            data = np.arange(64, dtype=np.float64)
            t0.send(Envelope(src=0, dst=1, context=3, tag=7, payload=data,
                             nelems=64))
            assert arrived.wait(timeout=5)
            env = got[-1]
            assert env.tag == 7 and env.context == 3
            assert np.array_equal(np.asarray(env.payload), data)
            assert t0.mode == "DM"
        finally:
            t0.close()
            t1.close()

    def test_loopback_is_local(self):
        t0, t1 = self._make_pair()
        try:
            got = []
            t0.set_deliver(0, got.append)
            t0.start()
            t1.start()
            t0.send(Envelope(src=0, dst=0))
            assert len(got) == 1  # delivered synchronously, no wire
        finally:
            t0.close()
            t1.close()

    def test_peer_death_delivers_peerfail(self):
        """A peer dying outside teardown is a classified single-rank loss
        (ULFM failure plane), not a whole-universe abort."""
        from repro.runtime.envelope import KIND_PEERFAIL, decode_peerfail_env
        t0, t1 = self._make_pair()
        try:
            got = []
            arrived = threading.Event()
            t0.set_deliver(0, lambda e: (got.append(e), arrived.set()))
            t0.start()
            t1.close()  # rank 1 "hard-killed" outside teardown
            assert arrived.wait(timeout=5)
            env = got[-1]
            assert env.kind == KIND_PEERFAIL
            failed_rank, cause = decode_peerfail_env(env)
            assert failed_rank == 1
            assert isinstance(cause, (ConnectionError, RuntimeError))
        finally:
            t0.close()

    def test_send_oob_reaches_remote_and_local_ranks(self):
        """The out-of-band lane (sanitizer probes from waits blocked
        inside a channel): over the socket to a rank hosted elsewhere,
        straight into the mailbox of one hosted here."""
        t0, t1 = self._make_pair()
        try:
            got0, got1 = [], []
            arrived = threading.Event()
            t0.set_deliver(0, got0.append)
            t1.set_deliver(1, lambda e: (got1.append(e), arrived.set()))
            t0.start()
            t1.start()
            t0.send_oob(Envelope(src=0, dst=1, tag=4))
            assert arrived.wait(timeout=5) and got1[0].tag == 4
            t0.send_oob(Envelope(src=1, dst=0, tag=5))
            assert [e.tag for e in got0] == [5]   # synchronous, no wire
        finally:
            t0.close()
            t1.close()

    def test_control_fanout_reaches_ranks_past_a_dead_one(self):
        """``broadcast_control`` must attempt every destination: the
        send to the dead rank raises, and the ranks numbered after it
        still have to hear the ABORT / PEERFAIL / REVOKE."""
        from repro.runtime.envelope import KIND_ABORT, encode_abort_env
        t0, t1, t2 = self._make_pair(3)
        try:
            got = []
            arrived = threading.Event()
            t0.set_deliver(0, lambda e: None)
            t2.set_deliver(2, lambda e: (got.append(e), arrived.set()))
            t2.start()
            t0._table[0, 1].close()      # rank 1 is gone: its socket raises
            with pytest.raises(OSError):
                t0.broadcast_control(encode_abort_env(0, 7))
            assert arrived.wait(timeout=5), "rank 2 never heard the abort"
            assert (got[0].kind, got[0].tag) == (KIND_ABORT, 7)
        finally:
            for t in (t0, t1, t2):
                t.close()

    def test_mesh_must_cover_all_peers(self):
        from repro.transport.socket_tcp import TCPMeshTransport
        with pytest.raises(ValueError):
            TCPMeshTransport(3, 0, {})


class TestModeled:
    @pytest.mark.parametrize("wrapper", (False, True), ids=("C", "J"))
    def test_charges_clock(self, wrapper):
        """A ``-J`` universe's transport adds the wrapper term to each
        data message; a ``-C`` one charges the message alone."""
        clock = VirtualClock()
        model = ENVIRONMENTS["WMPI_SM"]
        tr = ModeledTransport(2, model, clock, wrapper=wrapper)
        collect(tr, 1)
        tr.send(Envelope(src=0, dst=1,
                         payload=np.zeros(1000, dtype=np.int8),
                         nelems=1000, kind=KIND_DATA))
        extra = model.wrapper_message_time(1000) if wrapper else 0.0
        assert clock.now() == pytest.approx(model.message_time(1000) + extra)
        assert tr.messages == 1
        assert tr.bytes_charged == 1000

    def test_control_charged_software_overhead_only(self):
        clock = VirtualClock()
        model = ENVIRONMENTS["WMPI_SM"]
        tr = ModeledTransport(2, model, clock)
        collect(tr, 1)
        from repro.runtime.envelope import KIND_ACK
        tr.send(Envelope(kind=KIND_ACK, src=0, dst=1))
        assert clock.now() == pytest.approx(model.t_sw)


class TestFactory:
    def test_known_names(self):
        for name in ("inproc", "chunked", "socket"):
            tr = make_transport(name, 2)
            tr.close()

    def test_unknown_name(self):
        with pytest.raises(ValueError):
            make_transport("carrier-pigeon", 2)


class TestVectoredFrames:
    """wire.py scatter/gather primitives: short writes, batching, EOF."""

    def _pair(self, bufsize=None):
        import socket
        a, b = socket.socketpair()
        if bufsize:
            a.setsockopt(socket.SOL_SOCKET, socket.SO_SNDBUF, bufsize)
            b.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, bufsize)
        return a, b

    def test_vectored_roundtrip_many_views(self):
        import threading
        import numpy as np
        from repro.transport import wire
        a, b = self._pair(bufsize=8192)   # force short writes / reads
        src = np.arange(200_000, dtype=np.uint8)
        mvs = memoryview(src).cast("B")
        views = [mvs[i:i + 1777] for i in range(0, len(src), 1777)]
        header = b"H" * 32
        out = np.zeros(len(src), dtype=np.uint8)
        mvd = memoryview(out).cast("B")
        rviews = [mvd[i:i + 1313] for i in range(0, len(out), 1313)]

        def tx():
            wire.send_frame(a, header, views)   # list body -> vectored

        t = threading.Thread(target=tx)
        t.start()
        got_header = bytearray(32)
        wire.recv_exact_into(b, memoryview(got_header))
        wire.recv_exact_into_views(b, rviews)
        t.join(timeout=10)
        assert bytes(got_header) == header
        assert np.array_equal(out, src)
        a.close(); b.close()

    def test_recv_views_raises_on_eof(self):
        from repro.transport import wire
        a, b = self._pair()
        a.close()
        view = memoryview(bytearray(16))
        with pytest.raises(ConnectionError):
            wire.recv_exact_into_views(b, [view])
        b.close()

    def test_body_nbytes(self):
        from repro.transport import wire
        assert wire.body_nbytes(b"abc") == 3
        assert wire.body_nbytes([memoryview(b"ab"), memoryview(b"c")]) == 3
        assert wire.body_nbytes([]) == 0


# ---------------------------------------------------------------------------
# shared-memory bulk lanes
# ---------------------------------------------------------------------------

import itertools
import os
import queue
import socket
import struct
import subprocess
import sys
import time

_seg_seq = itertools.count(1)

#: child half of the counter-publish probe: attach the segment and
#: publish 1..n through the ring's own counter store
_PUBLISH_WRITER = """
import sys
from repro.transport.shm import ShmSegment
seg = ShmSegment(sys.argv[1], create=False)
ring = seg.rndv
for value in range(1, int(sys.argv[2]) + 1):
    ring._store(ring._head_off, value)
seg.close()
"""


def _seg_name():
    return f"repro_t{os.getpid():x}_{next(_seg_seq)}"


class _SpinStall:
    """Minimal stall for driving the raw ring without a channel."""

    def __init__(self):
        self.calls = 0

    def __call__(self):
        self.calls += 1
        time.sleep(0)

    def reset(self):
        pass


class _Stats:
    """CounterGroup stand-in recording ``stall_sleeps`` increments."""

    def __init__(self):
        self.stall_sleeps = 0

    def add(self, key, delta=1):
        if key == "stall_sleeps":
            self.stall_sleeps += delta


class TestShmRing:
    """The SPSC byte ring: wrap-around, backpressure, oversized bodies."""

    @staticmethod
    def _segment(rndv=64):
        from repro.transport.shm import ShmSegment
        return ShmSegment(_seg_name(), create=True, rndv=rndv)

    def test_wraparound_roundtrip(self):
        seg = self._segment(rndv=64)
        try:
            ring, stall = seg.rndv, _SpinStall()
            for pattern in (b"A" * 40, b"B" * 40, b"C" * 40):
                ring.write_views([pattern], stall)   # later writes wrap
                out = memoryview(bytearray(40))
                got = 0
                while got < 40:
                    got += ring.read_some([out[got:]], stall)
                assert bytes(out) == pattern
            assert ring.read_available() == 0
            assert ring.write_free() == ring.capacity
        finally:
            seg.close()

    def test_body_straddling_wrap_scatters_across_views(self):
        """A 100-byte body through a 64-byte ring: the payload is
        larger than the capacity (streams in pieces) and the consumer's
        destination views straddle the wrap point."""
        seg = self._segment(rndv=64)
        try:
            ring = seg.rndv
            src = bytes(i % 251 for i in range(100))
            out = bytearray(100)
            mv = memoryview(out)
            views = [mv[:33], mv[33:]]
            done = []

            def consumer():
                ring.read_exact_views(views, _SpinStall())
                done.append(True)

            t = threading.Thread(target=consumer)
            t.start()
            ring.write_views([src], _SpinStall())
            t.join(timeout=10)
            assert done and bytes(out) == src
        finally:
            seg.close()

    def test_full_ring_backpressure_sleeps_instead_of_spinning(self):
        """A producer blocked on a full ring must fall into the sleep
        backoff (counted as ``stall_sleeps``), not hot-spin."""
        from repro.transport.shm import ShmChannel
        seg = self._segment(rndv=4096)
        chan = ShmChannel(seg, 0, 1)
        stats = _Stats()
        chan.bind(threading.Event(), stats)
        payload = bytes(256 * 1024)
        try:
            t = threading.Thread(target=chan.sendall, args=(payload,))
            t.start()
            time.sleep(0.05)          # let the producer fill and block
            assert stats.stall_sleeps > 0
            got = 0
            buf = memoryview(bytearray(8192))
            while got < len(payload):
                got += chan.recv_into(buf)
            t.join(timeout=10)
            assert not t.is_alive()
            assert got == len(payload)
        finally:
            seg.close()

    def test_blocked_wait_unwinds_when_peer_marked_dead(self):
        """Rings have no EOF: the ``dead`` flag (fed by the pair's
        socket and the failure plane) is what breaks a blocked wait
        out."""
        from repro.transport.shm import ShmChannel
        seg = self._segment(rndv=4096)
        chan = ShmChannel(seg, 0, 1)
        chan.bind(threading.Event(), _Stats())
        errs = []

        def producer():
            try:
                chan.sendall(bytes(64 * 1024))
            except ConnectionError as exc:
                errs.append(exc)

        try:
            t = threading.Thread(target=producer)
            t.start()
            time.sleep(0.02)
            chan.dead.set()
            t.join(timeout=10)
            assert errs and "dead" in str(errs[0])
        finally:
            seg.close()

    @pytest.mark.skipif((os.cpu_count() or 1) < 2,
                        reason="a torn publish is only observable from "
                               "a second CPU")
    def test_counter_publish_is_never_torn_across_processes(self):
        """A counter publish must be one 8-byte store: a reader in
        another process sees the old value or the new one.  (A
        ``struct.pack_into`` store zero-fills the field first; the
        reader catches the zero, computes negative free space, and the
        ring aborts under any windowed stream.)"""
        import repro
        seg = self._segment(rndv=4096)
        n = 1_000_000
        src = os.path.dirname(os.path.dirname(repro.__file__))
        writer = subprocess.Popen(
            [sys.executable, "-c", _PUBLISH_WRITER, seg.name, str(n)],
            env={**os.environ, "PYTHONPATH": src})
        try:
            ring = seg.rndv
            last, reads = 0, 0
            deadline = time.monotonic() + 60
            while last < n:
                value = ring._load(ring._head_off)
                assert value >= last, \
                    f"torn counter publish: read {value} after {last}"
                last = value
                reads += 1
                if not reads % 65536:
                    assert time.monotonic() < deadline, "writer stalled"
                    assert writer.poll() in (None, 0), "writer died"
            assert writer.wait(timeout=30) == 0
        finally:
            writer.kill()
            writer.wait()
            seg.close()


@pytest.fixture
def eager_limit():
    """Set the eager/rendezvous threshold for one test."""
    from repro.transport import wire
    prev = wire.eager_limit()
    yield wire.set_eager_limit
    wire.set_eager_limit(prev)


def _ring_counters(tr, src, dst):
    """(head, tail) of the src->dst lane: bytes ever written / read."""
    ring = tr._table[src, dst].lane_tx.seg.rndv
    return ring._load(ring._head_off), ring._load(ring._tail_off)


def _settled(tr, **want):
    """Wait for counters the writer thread bumps after its write."""
    deadline = time.monotonic() + 5
    while time.monotonic() < deadline:
        stats = tr.wire_stats.snapshot()
        if all(stats[k] == v for k, v in want.items()):
            return True
        time.sleep(0.005)
    return False


class _Collector:
    """Deliver target keeping every body in arrival order: eager ones as
    delivered, announced ones by accepting the RTS with a landing buffer
    of their own (so ring and get both end up here)."""

    def __init__(self, n):
        self.n = n
        self.seen = []
        self.done = threading.Event()

    def deliver(self, env):
        from repro.runtime.envelope import KIND_RTS
        if env.kind == KIND_RTS:
            env.rndv_accept(_Landing(self, env.rndv_nbytes))
        else:
            self.add(env.tag, np.array(env.payload))

    def add(self, tag, body):
        self.seen.append((tag, body))
        if len(self.seen) == self.n:
            self.done.set()


class _Landing:
    """The posted receive a :class:`_Collector` answers an RTS with."""

    def __init__(self, owner, nbytes):
        self.owner, self.req = owner, self
        self.buf = np.zeros(nbytes, dtype=np.uint8)

    def recv_views(self, env):
        return [memoryview(self.buf)]

    def complete(self, tag=None, **_):
        self.owner.add(tag, self.buf.view(np.int32))


class TestShmWorld:
    """Socketpairs + lanes in-process: framing, FIFO, cleanup."""

    @pytest.mark.parametrize("path", ["ring", "cma"])
    def test_concurrent_pingpong_stress(self, path, eager_limit, request):
        """Both directions at once with every body at or above the eager
        limit.  ``ring`` (probes denied): the bodies ride the lanes, and
        lane byte order has to keep matching header order on the
        sockets.  ``cma``: each body is announced and read in place —
        the rings are never touched, nothing stalls, nothing is staged.
        """
        from repro.transport.shm import shm_world
        request.getfixturevalue("cma_denied" if path == "ring"
                                else "cma_capable")
        eager_limit(32)               # 64 B payloads: all of them bulk
        tr = shm_world(2, rndv=8192)
        n = 300
        ends = {0: _Collector(n), 1: _Collector(n)}
        tr.set_deliver(0, ends[0].deliver)
        tr.set_deliver(1, ends[1].deliver)
        tr.start()
        try:
            def sender(src):
                for i in range(n):
                    tr.send(Envelope(src=src, dst=1 - src, tag=i, seq=i + 1,
                                     payload=np.full(16, i, dtype=np.int32),
                                     nelems=16))

            threads = [threading.Thread(target=sender, args=(s,))
                       for s in (0, 1)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=30)
            assert ends[0].done.wait(timeout=10) \
                and ends[1].done.wait(timeout=10)
            for rank in (0, 1):
                seen = ends[rank].seen
                assert [tag for tag, _ in seen] == list(range(n))
                assert all(np.all(body == tag) for tag, body in seen)
            stats = tr.wire_stats.snapshot()
            if path == "ring":
                assert _ring_counters(tr, 0, 1) == (n * 64, n * 64)
                assert stats["rndv_get_frames"] == 0, stats
            else:
                for pair in ((0, 1), (1, 0)):
                    assert _ring_counters(tr, *pair) == (0, 0)
                assert stats["rndv_get_frames"] == 2 * n, stats
                assert stats["rndv_get_bytes"] == 2 * n * 64, stats
                assert stats["rndv_staged_bytes"] == 0, stats
                assert stats["stall_sleeps"] == 0, stats
        finally:
            tr.close()

    def test_close_unlinks_every_segment(self):
        from repro.transport.shm import leaked_segments, shm_world
        nonce = f"t{os.getpid():x}u{next(_seg_seq)}"
        tr = shm_world(2, nonce=nonce)
        assert len(leaked_segments(nonce, 2)) == 2   # both directions live
        tr.close()
        assert leaked_segments(nonce, 2) == []

    def test_universe_finalize_unlinks_segments(self):
        from repro.runtime.engine import Universe
        from repro.transport.shm import leaked_segments, shm_world
        nonce = f"t{os.getpid():x}u{next(_seg_seq)}"
        uni = Universe(2, transport=shm_world(2, nonce=nonce))
        try:
            assert len(leaked_segments(nonce, 2)) == 2
        finally:
            uni.close()
        assert leaked_segments(nonce, 2) == []

    def test_segment_attach_validates_magic(self):
        from repro.transport.shm import (ShmSegment, map_segment,
                                         unlink_segment)
        name = _seg_name()
        raw = map_segment(name, 512)
        try:
            with pytest.raises(ValueError):
                ShmSegment(name, create=False)
        finally:
            raw.close()
            unlink_segment(name)

    def test_a_name_is_created_once_and_unlinked_by_its_owner(self):
        """Creation is exclusive, and neither a failed create nor an
        attacher's close removes the owner's name."""
        from repro.transport.shm import ShmSegment
        name = _seg_name()
        owner = ShmSegment(name, create=True, rndv=64)
        try:
            with pytest.raises(FileExistsError):
                ShmSegment(name, create=True, rndv=64)
            attached = ShmSegment(name, create=False)
            assert attached.rndv.capacity == 64
            attached.close()
            assert os.path.exists(f"/dev/shm/{name}")
        finally:
            owner.close()
        assert not os.path.exists(f"/dev/shm/{name}")


#: tag of the message whose delivery wedges a ``_Rank``'s pump
_WEDGE_TAG = 999


class _Rank:
    """Stand-in mailbox for a bare transport: records arrival (which is
    matching) order, and accepts a rendezvous request-to-send with
    itself as the posted receive, landing into a scratch buffer."""

    def __init__(self):
        self.arrived: queue.SimpleQueue = queue.SimpleQueue()
        self.landed: queue.SimpleQueue = queue.SimpleQueue()
        self.wedge = threading.Event()
        self.req = self
        self.buffers = {}       # tag -> where that rendezvous landed

    def deliver(self, env):
        from repro.runtime.envelope import KIND_RTS
        self.arrived.put((env.kind, env.src, env.tag))
        if env.kind == KIND_RTS:
            env.rndv_accept(self)
        elif env.tag == _WEDGE_TAG:
            self.wedge.wait(timeout=30)   # a rank that stopped draining

    def recv_views(self, env):
        buf = self.buffers[env.tag] = bytearray(env.rndv_nbytes)
        return [memoryview(buf)]

    def complete(self, source_world=None, tag=None, **_):
        self.landed.put((source_world, tag))


class TestSingleCopyGet:
    """``shm_world`` pairs whose probe passed: a payload at or above the
    eager limit travels RTS-with-cookie -> get -> DONE."""

    LANE = 64 * 1024
    LIMIT = 1024
    N = 200_000

    def _world(self, eager_limit):
        from repro.transport.shm import shm_world
        eager_limit(self.LIMIT)
        tr = shm_world(2, rndv=self.LANE)
        ranks = [_Rank(), _Rank()]
        for r, rank in enumerate(ranks):
            tr.set_deliver(r, rank.deliver)
        tr.start()
        return tr, ranks

    @pytest.fixture
    def world(self, cma_capable, eager_limit):
        tr, ranks = self._world(eager_limit)
        try:
            yield tr, ranks
        finally:
            tr.close()

    _seq = itertools.count(1)

    def _env(self, src, tag, nbytes, **kw):
        payload = (np.arange(nbytes) % 251).astype(np.uint8)
        return Envelope(src=src, dst=1 - src, tag=tag, seq=next(self._seq),
                        payload=payload, nelems=nbytes, **kw)

    def test_one_copy_two_frames(self, world):
        """The sender writes exactly one frame (the RTS with its cookie),
        the receiver exactly one (DONE); the bytes move with no
        intermediate buffer — no ring traffic, no stall, no staging —
        and no payload byte is written to any stream."""
        from repro.runtime.envelope import HEADER_SIZE, KIND_RTS
        tr, ranks = world
        env = self._env(0, 7, self.N)
        flushed = threading.Event()
        env.on_flushed = flushed.set
        tr.send(env)
        assert ranks[1].arrived.get(timeout=10) == (KIND_RTS, 0, 7)
        assert ranks[1].landed.get(timeout=10) == (0, 7)
        assert flushed.wait(timeout=10), "DONE never released the send"
        assert bytes(ranks[1].buffers[7]) == env.payload.tobytes()
        assert _settled(tr, tx_frames=2), tr.wire_stats
        s = tr.wire_stats.snapshot()
        assert (s["rts_frames"], s["cts_frames"]) == (1, 1), s
        assert s["tx_bytes"] == 2 * HEADER_SIZE + 16, s   # + a 1-row cookie
        assert (s["rndv_get_frames"], s["rndv_get_bytes"]) == (1, self.N), s
        assert (s["rndv_direct_frames"], s["rndv_direct_bytes"]) \
            == (1, self.N), s
        assert s["rndv_staged_frames"] == 0 and s["stall_sleeps"] == 0, s
        for pair in ((0, 1), (1, 0)):
            assert _ring_counters(tr, *pair) == (0, 0)
        assert tr.bulk_paths() == {"0->1": "cma", "1->0": "cma"}

    def test_parked_envelope_holds_the_buffer_until_done(self, world):
        """Hazard: the envelope parked in ``_RendezvousState.out`` is
        what keeps the send buffer alive while the receiver may still
        read it — it goes, and the send completes, on DONE and not
        before."""
        tr, ranks = world
        pending: queue.SimpleQueue = queue.SimpleQueue()
        tr.set_deliver(1, pending.put)          # an RTS nobody accepts yet
        env = self._env(0, 3, self.N)
        flushed = threading.Event()
        env.on_flushed = flushed.set
        tr.send(env)
        rts = pending.get(timeout=10)
        assert rts.rndv_cookie.tolist() == [[env.payload.ctypes.data,
                                             self.N]]
        assert not flushed.wait(timeout=0.1)
        assert tr._rndv[0].out[env.seq] is env
        rts.rndv_accept(ranks[1])               # the receive gets posted
        assert ranks[1].landed.get(timeout=10) == (0, 3)
        assert flushed.wait(timeout=10)
        assert env.seq not in tr._rndv[0].out
        assert bytes(ranks[1].buffers[3]) == env.payload.tobytes()

    def test_ssend_completes_on_done(self, world):
        from repro.runtime.envelope import KIND_ACK, MODE_SYNCHRONOUS
        tr, ranks = world
        tr.send(self._env(0, 5, self.N, mode=MODE_SYNCHRONOUS))
        assert ranks[1].landed.get(timeout=10) == (0, 5)
        # the local ACK that completes the Ssend, delivered to the sender
        assert ranks[0].arrived.get(timeout=10) == (KIND_ACK, 1, 5)

    def test_one_denied_rank_covers_all_three_policies(
            self, monkeypatch, eager_limit):
        """Selection is observed per endpoint.  With rank 1's probes
        denied: what rank 0 sends carries a cookie that rank 1 answers
        with a plain CTS (the payload then streams through the lane);
        what rank 1 sends follows the ring policy — eager through the
        lane when the frame fits, plain RTS/CTS when it does not."""
        from repro.runtime.envelope import KIND_DATA, KIND_RTS
        from repro.transport import cma
        monkeypatch.setenv("REPRO_FAULT", "cma.probe:1::deny")
        if not cma.probe(0, *cma.advert()):
            pytest.skip("process_vm_readv is not usable here")
        tr, ranks = self._world(eager_limit)
        try:
            assert tr.bulk_paths() == {"0->1": "cma", "1->0": "ring"}
            assert "0->1 cma, 1->0 ring" in tr.describe()
            tr.send(self._env(0, 1, self.N))            # cookie, refused
            assert ranks[1].arrived.get(timeout=10) == (KIND_RTS, 0, 1)
            assert ranks[1].landed.get(timeout=10) == (0, 1)
            assert _ring_counters(tr, 0, 1) == (self.N, self.N)
            tr.send(self._env(1, 2, 2048))              # fits the lane
            assert ranks[0].arrived.get(timeout=10) == (KIND_DATA, 1, 2)
            tr.send(self._env(1, 3, self.N))            # does not
            assert ranks[0].arrived.get(timeout=10) == (KIND_RTS, 1, 3)
            assert ranks[0].landed.get(timeout=10) == (1, 3)
            assert _ring_counters(tr, 1, 0) == (2048 + self.N,
                                                2048 + self.N)
            s = tr.wire_stats.snapshot()
            assert s["rndv_get_frames"] == 0, s
            assert (s["rts_frames"], s["cts_frames"]) == (2, 2), s
            assert s["rndv_direct_frames"] == 2, s
        finally:
            tr.close()

    def test_eperm_at_get_time_falls_back_to_a_plain_cts(self, world,
                                                         monkeypatch):
        """The kernel may refuse at get time what it allowed at probe
        time; the same CTS fallback absorbs it, and the endpoint stops
        offering and taking gets."""
        from repro.transport import cma
        tr, ranks = world

        def refused(pid, remote, local):
            raise PermissionError(1, "Operation not permitted")

        monkeypatch.setattr(cma, "read", refused)
        env = self._env(0, 9, self.N)
        tr.send(env)
        assert ranks[1].landed.get(timeout=10) == (0, 9)
        assert bytes(ranks[1].buffers[9]) == env.payload.tobytes()
        assert _ring_counters(tr, 0, 1) == (self.N, self.N)
        assert tr.wire_stats.snapshot()["rndv_get_frames"] == 0
        assert tr.bulk_paths() == {"0->1": "cma", "1->0": "ring"}

    @pytest.mark.parametrize("err", ["ESRCH", "EFAULT"])
    def test_failed_get_is_a_peer_loss_not_an_exception(self, world, err,
                                                        monkeypatch):
        """Hazard: the sender died after its RTS.  The read's errno is
        classified on the spot — the receiver learns of a lost peer the
        way it would from the socket's EOF, and the thread that ran the
        match (here the pump) lives on."""
        import errno
        from repro.runtime.envelope import KIND_DATA, KIND_PEERFAIL, \
            KIND_RTS
        from repro.transport import cma
        tr, ranks = world
        code = getattr(errno, err)

        def gone(pid, remote, local):
            raise OSError(code, os.strerror(code))

        monkeypatch.setattr(cma, "read", gone)
        tr.send(self._env(0, 4, self.N))
        assert ranks[1].arrived.get(timeout=10) == (KIND_RTS, 0, 4)
        assert ranks[1].arrived.get(timeout=10)[:2] == (KIND_PEERFAIL, 0)
        assert ranks[1].landed.empty()
        tr.send(self._env(0, 6, 8))             # the pump still serves
        assert ranks[1].arrived.get(timeout=10) == (KIND_DATA, 0, 6)


class TestLaneOnOnePair:
    """One channel table, mixed: three ranks in one process, a socket
    between every pair, bulk lanes on pair (0, 1) only."""

    LANE = 64 * 1024
    LIMIT = 1024

    @pytest.fixture
    def world(self, eager_limit):
        from repro.transport import wire
        from repro.transport.shm import ShmChannel, ShmSegment
        chans = {}
        for i, j in ((0, 1), (0, 2), (1, 2)):
            a, b = socket.socketpair()
            chans[i, j], chans[j, i] = \
                wire.Channel(a, i, j), wire.Channel(b, j, i)
        segs = {pair: ShmSegment(_seg_name(), create=True, rndv=self.LANE)
                for pair in ((0, 1), (1, 0))}
        for me, peer in segs:
            chans[me, peer].attach_lanes(
                ShmChannel(segs[me, peer], me, peer),
                ShmChannel(segs[peer, me], peer, me))
        tr = wire.WireTransport(3, range(3), chans.values())
        ranks = [_Rank() for _ in range(3)]
        for r, rank in enumerate(ranks):
            tr.set_deliver(r, rank.deliver)
        eager_limit(self.LIMIT)
        tr.start()
        try:
            yield tr, ranks, chans
        finally:
            for rank in ranks:
                rank.wedge.set()
            tr.close()

    @staticmethod
    def _lane_bytes(chan):
        """Bytes ever written to ``chan``'s outbound lane."""
        ring = chan.lane_tx.seg.rndv
        return ring._load(ring._head_off)

    _seq = itertools.count(1)

    def _env(self, src, dst, tag, nbytes=8, **kw):
        return Envelope(src=src, dst=dst, tag=tag, seq=next(self._seq),
                        payload=np.zeros(nbytes, dtype=np.int8),
                        nelems=nbytes, **kw)

    def test_fifo_across_an_eager_lane_rendezvous_mix_on_every_pair(
            self, world):
        from repro.runtime.envelope import KIND_RTS
        tr, ranks, chans = world
        # below the limit: eager on the socket, everywhere.  At or above
        # it: on the lane pair a frame that fits the lane whole stays
        # eager with its body in the lane (2048) and the rest handshake;
        # on plain sockets everything handshakes
        sizes = (8, 200_000, 8, 2048, 100_000, 64)
        for src in range(3):
            for dst in range(3):
                if src == dst:
                    continue
                for tag, n in enumerate(sizes):
                    tr.send(self._env(src, dst, tag, n))
        for dst, rank in enumerate(ranks):
            seen = {src: [] for src in range(3) if src != dst}
            for _ in range(2 * len(sizes)):
                kind, src, tag = rank.arrived.get(timeout=10)
                seen[src].append((tag, kind == KIND_RTS))
            for src, got in seen.items():
                fits = self.LANE if chans[src, dst].lane_tx else 0
                want = [(tag, n >= self.LIMIT and n + 64 > fits)
                        for tag, n in enumerate(sizes)]
                assert got == want, f"{src}->{dst}: {got}"
            landed = sorted(rank.landed.get(timeout=10)
                            for _ in range(sum(rndv for got in seen.values()
                                               for _, rndv in got)))
            assert landed == sorted((src, tag) for src, got in seen.items()
                                    for tag, rndv in got if rndv)
        # only FLAG_BULK bodies went through the lane — the one eager
        # frame that fit it and both rendezvous payloads; every header
        # and every small body rode the socket
        for pair in ((0, 1), (1, 0)):
            assert self._lane_bytes(chans[pair]) == 2048 + 200_000 + 100_000

    def _headers_only(self, chans, src, dst, tag, nbytes):
        """A ``FLAG_BULK`` header onto the socket whose body never
        reaches the lane: what a sender that dies in the gap leaves."""
        from repro.runtime import envelope as ev
        from repro.transport import wire
        header, _ = ev.encode(self._env(src, dst, tag, nbytes), bulk=True)
        wire.framed_send(chans[src, dst], header)

    def test_peerfail_unwinds_both_lane_stalls(self, world):
        from repro.runtime.envelope import KIND_PEERFAIL, \
            encode_peerfail_env
        tr, ranks, chans = world
        # rank 1 stops draining; the first 60 000-byte body fits the
        # 64 KiB lane, the second stalls its writer on lane space
        tr.send(self._env(0, 1, _WEDGE_TAG))
        assert ranks[1].arrived.get(timeout=10)[2] == _WEDGE_TAG
        errs = []

        def blocked_send():
            try:
                for tag in (1, 2):
                    tr.send(self._env(0, 1, tag, 60_000))
            except ConnectionError as exc:
                errs.append(exc)

        t = threading.Thread(target=blocked_send)
        t.start()
        # ... and rank 0's pump reads a header whose body never comes
        self._headers_only(chans, 1, 0, 3, 2048)
        time.sleep(0.1)
        assert t.is_alive(), "writer should be stalled on lane space"
        fail = encode_peerfail_env(1, ConnectionError("rank 1 lost"))
        fail.dst = 0
        tr.send_oob(fail)     # rank 0's pump is the one that is stuck
        assert ranks[0].arrived.get(timeout=10)[:2] == (KIND_PEERFAIL, 1)
        t.join(timeout=10)
        assert not t.is_alive() and errs and "dead" in str(errs[0])
        # the stalled reader unwound too: its pump classified the loss
        # (a second notice) and went back to serving the live rank
        assert ranks[0].arrived.get(timeout=10)[:2] == (KIND_PEERFAIL, 1)
        tr.send(self._env(2, 0, 4))
        assert ranks[0].arrived.get(timeout=10)[1:] == (2, 4)
        tr.send(self._env(0, 2, 5, 4096))
        assert ranks[2].arrived.get(timeout=10)[1:] == (0, 5)

    def test_reader_stalled_on_a_dead_senders_body_sees_its_eof(
            self, world):
        """Hazard: the one pump that would notice the peer's EOF is the
        one sitting in the lane read.  Its stall peeks the socket."""
        from repro.runtime.envelope import KIND_PEERFAIL
        tr, ranks, chans = world
        self._headers_only(chans, 1, 0, 3, 2048)
        chans[1, 0].sock.shutdown(socket.SHUT_WR)    # ... and dies
        assert ranks[0].arrived.get(timeout=5)[:2] == (KIND_PEERFAIL, 1)
        tr.send(self._env(2, 0, 4))
        assert ranks[0].arrived.get(timeout=10)[1:] == (2, 4)


class _TickingSanitizer:
    """Sanitizer stand-in: every stall tick sends one probe out of band,
    from the stalled thread, the way the real one does."""

    probe_interval = 0.0

    def __init__(self, transport):
        self.transport = transport
        self.sent = 0

    def transport_wait_begin(self, rank, peer, what):
        return (rank, peer)

    def transport_wait_tick(self, bw):
        from repro.runtime.envelope import KIND_SANITIZE
        if not self.sent:
            self.sent += 1
            self.transport.send_oob(Envelope(
                kind=KIND_SANITIZE, src=bw[0], dst=bw[1], tag=77))

    def transport_wait_end(self, bw):
        pass


def test_probe_from_a_writer_stalled_on_lane_space(eager_limit):
    """A writer stalled between a bulk header and its body holds the
    pair's write lock; the sanitizer probe it sends from there is one
    more frame on that same socket — no self-deadlock, and the stream
    stays whole (header, probe on the socket; both bodies in the lane)."""
    from repro.runtime.envelope import KIND_SANITIZE
    from repro.transport import wire
    from repro.transport.shm import ShmChannel, ShmSegment
    a, b = socket.socketpair()
    ends = {0: wire.Channel(a, 0, 1), 1: wire.Channel(b, 1, 0)}
    segs = {pair: ShmSegment(_seg_name(), create=True, rndv=64 * 1024)
            for pair in ((0, 1), (1, 0))}
    for me, peer in segs:
        ends[me].attach_lanes(ShmChannel(segs[me, peer], me, peer),
                              ShmChannel(segs[peer, me], peer, me))
    t0 = wire.WireTransport(2, (0,), [ends[0]])
    t1 = wire.WireTransport(2, (1,), [ends[1]])
    rank1 = _Rank()
    t0.set_deliver(0, lambda env: None)
    t1.set_deliver(1, rank1.deliver)
    san = _TickingSanitizer(t0)
    t0.set_sanitizer(san)
    eager_limit(1024)
    t0.start()
    t1.start()
    try:
        def env(tag, nbytes=8):
            return Envelope(src=0, dst=1, tag=tag, seq=tag,
                            payload=np.zeros(nbytes, dtype=np.int8),
                            nelems=nbytes)

        t0.send(env(_WEDGE_TAG))
        assert rank1.arrived.get(timeout=10)[2] == _WEDGE_TAG
        t = threading.Thread(
            target=lambda: [t0.send(env(tag, 60_000)) for tag in (1, 2)])
        t.start()
        deadline = time.monotonic() + 10
        while not san.sent and time.monotonic() < deadline:
            time.sleep(0.01)
        assert san.sent, "the stalled writer never ticked the sanitizer"
        rank1.wedge.set()
        t.join(timeout=10)
        assert not t.is_alive()
        got = [rank1.arrived.get(timeout=10) for _ in range(3)]
        assert [(kind == KIND_SANITIZE, tag) for kind, _, tag in got] \
            == [(False, 1), (False, 2), (True, 77)]
    finally:
        rank1.wedge.set()
        t0.close()
        t1.close()


class TestSenderLostMidEagerBody:
    """A posted receive the pump claimed for direct landing has left the
    posted queue — where the failure plane's walk would have found it —
    and subscribed to nothing: the pump itself must fail it when the
    stream dies under the body."""

    def test_claimed_receive_completes_with_proc_failed(self):
        from repro.datatypes import primitives as P
        from repro.errors import ERR_PROC_FAILED
        from repro.runtime import envelope as ev
        from repro.runtime.engine import RankRuntime, Universe
        from repro.transport.wire import DIRECT_EAGER_MIN
        n = 4 * DIRECT_EAGER_MIN
        universe = Universe(2, "socket")
        try:
            comm = RankRuntime(universe, 1).comm_world
            buf = np.zeros(n, dtype=np.int8)
            req = comm.irecv(buf, 0, n, P.BYTE, 0, 5)
            done = threading.Event()
            req.add_listener(lambda _: done.set())
            chan = universe.transport._table[0, 1]
            header = ev.HEADER.pack(
                ev.KIND_DATA, 0, 1, comm.ctx_pt2pt, 5, ev.MODE_STANDARD, 1,
                n, 0, ev.dtype_code_of(buf).encode(), n)
            with chan.lock:
                chan.sendall(header)
                chan.sendall(bytes(n // 2))     # half a body, then gone
            chan.shutdown()
            assert done.wait(10), "the claimed receive was stranded"
            assert req.error == ERR_PROC_FAILED and req.ft_failed_rank == 0
            assert 0 in universe.failed_ranks
            assert universe.mailboxes[1].pending_counts() == (0, 0)
        finally:
            universe.close()


class TestProbeWordPerProcess:
    """Ranks are forked from one zygote, so every one of them holds the
    probe word at the same address: only its *value* can tell a peer
    that the pid it read is the process the advert names."""

    ADVERT = struct.Struct("!QQQ")

    def test_forked_ranks_advertise_their_own_word(self, cma_capable):
        from repro.transport import cma
        up_r, up_w = os.pipe()
        hold_r, hold_w = os.pipe()
        adverts, pids = [], []
        try:
            for rank in range(4):
                pid = os.fork()
                if pid == 0:
                    code = 1
                    try:   # a forked pytest must never unwind into pytest
                        os.close(hold_w)
                        cma.allow_tracer(os.getppid())
                        mine = cma.advert()
                        verdict = b"--"
                        if adverts:
                            # rank 3 reads rank 0, a *sibling*: the word
                            # rank 0 advertised is there, its own is not
                            verdict = bytes([
                                cma.probe(rank, *adverts[0]),
                                cma.probe(rank, adverts[0][0], *mine[1:])])
                        os.write(up_w, self.ADVERT.pack(*mine) + verdict)
                        os.read(hold_r, 1)   # EOF: the test is done
                        code = 0
                    finally:
                        os._exit(code)
                pids.append(pid)
                if rank < 3:
                    got = os.read(up_r, self.ADVERT.size + 2)
                    adverts.append(self.ADVERT.unpack(got[:-2]))
            got = os.read(up_r, self.ADVERT.size + 2)
            adverts.append(self.ADVERT.unpack(got[:-2]))
            adverts.append(cma.advert())    # the "zygote"
            assert [a[0] for a in adverts] == pids + [os.getpid()]
            assert len({a[2] for a in adverts}) == 5, adverts
            assert got[-2:] == bytes([True, False]), \
                "a sibling's pid passed for the rank the advert names"
            for pid, address, value in adverts[:4]:
                assert cma.probe(0, pid, address, value)
                assert not cma.probe(0, pid, *cma.advert()[1:])
        finally:
            os.close(hold_w)
            for fd in (up_r, up_w, hold_r):
                os.close(fd)
            for pid in pids:
                os.waitpid(pid, 0)


# ---------------------------------------------------------------------------
# the read buffer: a pump drains every frame the kernel already holds
# ---------------------------------------------------------------------------

from hypothesis import example, given, settings, strategies as st  # noqa: E402


def _bytes_for(tag: int, n: int) -> np.ndarray:
    return ((np.arange(n) + 7 * tag) % 251).astype(np.uint8)


class _Posted:
    """A posted receive offering byte views (claimed eager body or
    rendezvous sink): its completion records what landed."""

    def __init__(self, seen, views):
        self.req, self.seen, self.views = self, seen, views

    def complete(self, source_world=None, tag=None, **_):
        self.seen.put(("landed", tag, b"".join(bytes(v) for v in self.views)))


class _Drained:
    """Rank 0 of a two-rank ``WireTransport`` (a socketpair plus bulk
    lanes) whose pump reads what the test writes by hand on rank 1's
    end — the stream in chunks cut anywhere, ``FLAG_BULK`` bodies into
    the lane.  Every observable outcome is recorded in arrival order: a
    delivery, a landing in a claimed or rendezvous window, a parked send
    released by DONE."""

    LANE = 512 * 1024

    def __init__(self):
        from repro.transport import wire
        from repro.transport.shm import ShmChannel, ShmSegment
        a, self.raw = socket.socketpair()
        segs = [ShmSegment(_seg_name(), create=True, rndv=self.LANE)
                for _ in range(2)]
        self.chan = wire.Channel(a, 0, 1)
        self.chan.attach_lanes(ShmChannel(segs[0], 0, 1),
                               ShmChannel(segs[1], 1, 0))
        self.lane = ShmChannel(segs[1], 1, 0)   # rank 1's producer end
        self.tr = wire.WireTransport(2, (0,), [self.chan])
        self.seen: queue.SimpleQueue = queue.SimpleQueue()
        self.claims = {}                          # tag -> views
        self.tr.set_deliver(0, self._deliver)
        self.tr.set_direct_claim(0, self._claim)
        self.tr.start()

    def _deliver(self, env):
        from repro.runtime import envelope as ev
        if env.kind == ev.KIND_DATA:
            body = b"" if env.payload is None else env.payload.tobytes()
            self.seen.put(("data", env.tag, body))
        elif env.kind == ev.KIND_RTS:
            cookie = env.rndv_cookie
            self.seen.put(("rts", env.tag, env.rndv_nbytes,
                           None if cookie is None else cookie.tolist()))
        elif env.kind == ev.KIND_PEERFAIL:
            self.seen.put(("peerfail", env.src))
        else:
            self.seen.put(("control", env.kind, env.tag,
                           bytes(env.payload or b"")))

    def _claim(self, peek):
        views = self.claims.pop(peek.tag, None)
        return None if views is None else (_Posted(self.seen, views), views)

    @staticmethod
    def _split(n: int):
        """Two views a body lands across (a strided window's runs)."""
        k = n // 3
        return [memoryview(bytearray(k)), memoryview(bytearray(n - k))]

    def frames(self, specs):
        """The stream of ``specs`` (rank 1 -> 0) and what it must
        produce; sets up the claims, sinks, parked sends and lane
        bodies the frames refer to."""
        from repro.runtime import envelope as ev
        from repro.transport.wire import DIRECT_EAGER_MIN
        stream, want = [], []
        for tag, spec in enumerate(specs):
            kind, seq = spec[0], tag + 1
            if kind in ("data", "bulk"):
                n = spec[1]
                env = Envelope(src=1, dst=0, tag=tag, seq=seq,
                               payload=_bytes_for(tag, n), nelems=n)
                header, body = ev.encode(env, bulk=kind == "bulk")
                if kind == "bulk":
                    self.lane.sendall(body)
                    body = b""
                if kind == "data" and spec[2] and n >= DIRECT_EAGER_MIN:
                    self.claims[tag] = self._split(n)
                    want.append(("landed", tag, env.payload.tobytes()))
                else:
                    want.append(("data", tag, env.payload.tobytes()))
                stream += [header, bytes(body)]
            elif kind == "rts":
                env = Envelope(src=1, dst=0, tag=tag, seq=seq,
                               payload=_bytes_for(tag, 5000), nelems=5000)
                table = np.array([[0x1000 * seq, 5000]], dtype=np.uint64) \
                    if spec[1] else None
                stream += [ev.encode_rts(env, table),
                           b"" if table is None else table.tobytes()]
                want.append(("rts", tag, 5000,
                             None if table is None else table.tolist()))
            elif kind == "rndv":
                n = spec[1]
                env = Envelope(src=1, dst=0, tag=tag, seq=seq,
                               payload=_bytes_for(tag, n), nelems=n)
                rts = ev.decode(ev.encode_rts(env), b"")
                self.tr._rndv[0].sinks[1, seq] = (
                    rts, _Posted(self.seen, views := self._split(n)), views)
                env.kind = ev.KIND_RNDV_DATA
                header, body = ev.encode(env)
                stream += [header, bytes(body)]
                want.append(("landed", tag, env.payload.tobytes()))
            elif kind in ("done", "cts"):
                parked = Envelope(src=0, dst=1, tag=tag, seq=seq,
                                  payload=np.zeros(1, dtype=np.uint8))
                if kind == "done":      # a CTS for a send not parked is
                    self.tr._rndv[0].out[seq] = parked     # ignored
                    parked.on_flushed = \
                        lambda seq=seq: self.seen.put(("done", seq))
                    want.append(("done", seq))
                stream.append(ev.HEADER.pack(
                    ev.KIND_CTS, 1, 0, 0, tag, 0, seq, 0,
                    ev.FLAG_CMA if kind == "done" else 0, b"--", 0))
            else:                       # control: an ACK, a probe's blob
                ctl = ev.KIND_ACK if kind == "ack" else ev.KIND_SANITIZE
                blob = bytes(_bytes_for(tag, spec[1])) if kind != "ack" \
                    else None
                env = Envelope(kind=ctl, src=1, dst=0, tag=tag, seq=seq,
                               payload=blob, is_object=blob is not None)
                header, body = ev.encode(env)
                stream += [header, bytes(body)]
                want.append(("control", ctl, tag, blob or b""))
        return b"".join(stream), want

    def write(self, stream: bytes, cuts) -> None:
        """``stream`` in chunks ending at ``cuts``, each given the pump
        a moment to read it alone."""
        at = 0
        for cut in sorted(set(cuts)) + [len(stream)]:
            if cut > at:
                self.raw.sendall(stream[at:cut])
                at = cut
                time.sleep(0.002)

    def got(self, n: int) -> list:
        return [self.seen.get(timeout=10) for _ in range(n)]

    def close(self) -> None:
        self.tr.close()
        self.raw.close()


_FRAME = st.one_of(
    st.tuples(st.just("data"), st.integers(0, 40_000), st.booleans()),
    st.tuples(st.just("bulk"), st.integers(1, 40_000)),
    st.tuples(st.just("rts"), st.booleans()),
    st.tuples(st.just("rndv"), st.integers(1, 50_000)),
    st.tuples(st.sampled_from(["done", "cts", "ack"])),
    st.tuples(st.just("probe"), st.integers(0, 3000)))


class TestStreamDrain:
    """What arrives in one read is cut into frames in place; a body
    that lands elsewhere gets the buffered part copied in and the rest
    read straight into it."""

    @settings(max_examples=40, deadline=None)
    @given(specs=st.lists(_FRAME, min_size=1, max_size=10),
           cuts=st.lists(st.floats(0, 1), max_size=8))
    # one write of 90 KB: the read buffer fills with a frame cut off at
    # its end, which has to move to the front
    @example(specs=[("data", 30_000, False)] * 3, cuts=[])
    # headers split mid-field, a claimed body split across its views
    @example(specs=[("ack",), ("data", 6000, True), ("rts", True)],
             cuts=[0.001, 0.01, 0.02, 0.5, 0.99])
    def test_any_chunking_delivers_what_frame_by_frame_reading_does(
            self, specs, cuts):
        d = _Drained()
        try:
            stream, want = d.frames(specs)
            d.write(stream, [int(c * len(stream)) for c in cuts])
            assert d.got(len(want)) == want
            assert d.seen.empty()
        finally:
            d.close()

    def test_frames_before_eof_all_arrive_before_the_peerfail(self):
        """Everything a peer completed before it went away is in the
        buffer with its EOF behind it: all of it is delivered first."""
        d = _Drained()
        try:
            stream, want = d.frames([("data", 1024, False)] * 50
                                    + [("probe", 64)])
            d.raw.sendall(stream)
            d.raw.shutdown(socket.SHUT_WR)
            assert d.got(len(want) + 1) == want + [("peerfail", 1)]
        finally:
            d.close()


class TestDirectLandingAfterABufferedPrefix:
    """A claimed window whose first bytes came in the same read as the
    frames before it: those are copied out of the read buffer, the rest
    streams off the socket into place."""

    @pytest.mark.parametrize("layout", ["contiguous", "strided"])
    def test_lands_exactly(self, layout):
        from repro.datatypes import derived
        from repro.datatypes import primitives as P
        from repro.runtime import envelope as ev
        from repro.runtime.engine import RankRuntime, Universe
        universe = Universe(2, "socket")
        try:
            comm = RankRuntime(universe, 1).comm_world
            payload = (np.arange(4096) % 127).astype(np.int8)
            if layout == "contiguous":
                buf, dtype, count = np.zeros(4096, np.int8), P.BYTE, 4096
                want = payload
            else:
                dtype = derived.vector(4, 1024, 2048, P.BYTE)
                dtype.commit()
                buf, count = np.zeros(4 * 2048, np.int8), 1
                want = np.zeros_like(buf)
                for k in range(4):
                    want[2048 * k:2048 * k + 1024] = \
                        payload[1024 * k:1024 * (k + 1)]
            small = np.zeros(8, np.int8)
            first = comm.irecv(small, 0, 8, P.BYTE, 0, 4)
            req = comm.irecv(buf, 0, count, dtype, 0, 5)
            stats = universe.transport.wire_stats.snapshot()

            def frame(tag, data, seq):
                header, body = ev.encode(Envelope(
                    src=0, dst=1, context=comm.ctx_pt2pt, tag=tag, seq=seq,
                    payload=data, nelems=len(data)))
                return header + bytes(body)

            wire_bytes = frame(4, small + 1, 1) + frame(5, payload, 2)
            cut = len(wire_bytes) - 4096 + 1500    # 1 500 body bytes in
            chan = universe.transport._table[0, 1]
            with chan.lock:
                chan.sendall(wire_bytes[:cut])
            assert first.done or _settled_req(first)
            time.sleep(0.05)
            assert not req.done
            with chan.lock:
                chan.sendall(wire_bytes[cut:])
            assert _settled_req(req)
            assert req.error == 0 and req.count_elements == 4096
            assert np.array_equal(buf, want)
            after = universe.transport.wire_stats.snapshot()
            assert after["eager_direct_frames"] \
                == stats["eager_direct_frames"] + 1
        finally:
            universe.close()


def _settled_req(req, timeout: float = 10.0) -> bool:
    deadline = time.monotonic() + timeout
    while not req.done and time.monotonic() < deadline:
        time.sleep(0.002)
    return req.done
