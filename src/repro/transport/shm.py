"""Shared-memory intra-node carrier: per-pair rings behind the channel
interface of :mod:`repro.transport.wire`.

On one host, procs-DM ranks would otherwise talk through loopback TCP —
two kernel crossings per message.  This module moves same-host traffic
into ``multiprocessing.shared_memory`` segments, the way production
MPIs structure their fastest path (MPICH Nemesis, Open MPI sm/vader).
It holds no transport of its own: a :class:`ShmChannel` is one more
entry in :class:`~repro.transport.wire.WireTransport`'s channel table,
listed after the pair's socket so that data prefers it.

* **Per-pair SPSC ring** (:class:`_SpscRing`) — each directed pair
  (src -> dst) owns one segment, created by the *receiver* during
  bootstrap, containing a byte-stream frame ring and a separate
  rendezvous region.  Frames are written into the frame ring in exactly
  the socket wire format (:mod:`repro.runtime.envelope`) and drained by
  the same ``_read_frame`` the socket pump runs.  The ring is a *byte
  stream* with 64-bit monotonic head/tail counters: the producer only
  ever advances ``head``, the consumer only ever advances ``tail`` (see
  the ``shm-ring-discipline`` lint rule), frames of any size stream
  through (a frame larger than the ring flows in pieces as the consumer
  drains), and a full ring blocks the producer through an adaptive
  yield-then-sleep backoff — never a hot spin.
* **Bulk lane = a claimable rendezvous region** — RTS/CTS ride the
  frame ring (so matching order stays FIFO with eager data), then the
  payload bytes land in the segment's rendezvous region and the
  receiver scatters them *directly into the posted buffer* via the
  layout IR's run views — strided receives stay zero-staging.  The
  region is itself SPSC flow-controlled: the notify frame goes first
  and the payload streams behind it, so payloads larger than the region
  never deadlock.  Keeping bulk payloads out of the frame ring means
  CTS/ACK/probe frames never queue behind megabytes of data.
* **Eager capacity** — on a wire, rendezvous also bounds the
  eager-staging copy; on shared rings both paths cost the same two
  copies, so the RTS/CTS round trip only pays for itself once a frame
  cannot sit in the ring whole.  ``eager_capacity`` is the ring size.
* **No EOF** — a dead peer produces nothing on a shared ring, so a ring
  error never means peer loss: the sockets and the launcher heartbeats
  stay the failure detector, the transport marks a failed peer's
  channels ``dead`` so blocked ring waits unwind with
  ``ConnectionError``, and the launcher sweeps the job's segments so
  fault-injected runs never leak ``/dev/shm`` entries.

Escape hatch: ``REPRO_SHM=0`` disables the shm path entirely (procs-DM
stays on loopback TCP).  Sizing: ``REPRO_SHM_RING_BYTES`` (frame ring,
default 4 MiB); capacities are recorded in the segment header, so
attachers never need to agree on environment variables.

Atomicity note: the head/tail counters are aligned 8-byte words read
and written as single items of a ``memoryview.cast("Q")`` of the
control block.  What is relied on, and not guaranteed by the language:
CPython stores such an item with one fixed-size 8-byte copy, which
compilers lower to one aligned store, and aligned 8-byte stores are
single-copy atomic on x86-64 and AArch64 — a reader in another process
sees the old value or the new one, never a mix (``struct.pack_into``
does *not* qualify: it zero-fills the field before packing, and a
concurrent reader sees the zero).  A two-process probe in the unit
tests holds this.  On x86-64's TSO model the data write is visible
before the index publish.  The counters sit on separate cache lines to
avoid producer/consumer false sharing.
"""

from __future__ import annotations

import os
import select
import socket
import struct
import threading
import time
from multiprocessing import shared_memory

from repro.runtime.envelope import HEADER_SIZE
from repro.transport.wire import WireTransport, framed_send
from repro.util import faultinject

__all__ = ["ShmChannel", "ShmSegment", "shm_enabled", "ring_bytes",
           "node_id", "segment_name", "create_inbound", "attach_outbound",
           "shm_world", "unlink_job_segments", "leaked_segments"]

#: default frame-ring capacity (bytes); REPRO_SHM_RING_BYTES overrides.
#: Sized so whole multi-megabyte eager frames fit without streaming —
#: a frame that fits the ring costs exactly one consumer wakeup
DEFAULT_RING_BYTES = 4 << 20
#: rendezvous-region capacity
DEFAULT_RNDV_BYTES = 4 << 20

#: segment header: magic(8) | ring_bytes(8) | rndv_bytes(8) |
#: sleeping(1), then the four ring counters each on their own cache
#: line (false sharing)
_MAGIC = b"RPSHM01\x00"
_SZ = struct.Struct("<Q")
_SLEEP_OFF = 24
_FRAME_HEAD_OFF = 64
_FRAME_TAIL_OFF = 128
_RNDV_HEAD_OFF = 192
_RNDV_TAIL_OFF = 256
_DATA_OFF = 320

#: upper bound on one doorbell sleep: the safety net for the unfenced
#: sleeping-flag handshake (see ShmSegment.poke) and the teardown poll
_DOORBELL_TIMEOUT = 0.005

#: pump spin budget before parking on the doorbells: sched_yield on a
#: shared core donates the slice to whoever is runnable, so spinning
#: longer than a couple of slots just thrashes the scheduler
_PUMP_YIELDS = 2

#: backoff shape for blocked ring waits: a few scheduler yields, then
#: exponentially growing sleeps — a blocked side must never burn the
#: core its peer needs to make progress (we may share one core)
_SPIN_YIELDS = 64
_SLEEP_BASE = 50e-6
_SLEEP_MAX = 500e-6


def shm_enabled() -> bool:
    """Is the shared-memory intra-node path enabled? (``REPRO_SHM=0``
    is the escape hatch — procs-DM then stays on loopback TCP.)"""
    return os.environ.get("REPRO_SHM", "1") != "0"


def ring_bytes() -> int:
    """Frame-ring capacity in bytes (``REPRO_SHM_RING_BYTES``)."""
    try:
        return max(4096, int(os.environ.get("REPRO_SHM_RING_BYTES",
                                            DEFAULT_RING_BYTES)))
    except ValueError:
        return DEFAULT_RING_BYTES


def node_id() -> str:
    """Host identity carried in the bootstrap address book.

    Two ranks share memory iff their node ids match.  The boot id
    disambiguates hostname collisions across machines (containers
    cloned from one image all think they are ``localhost``).
    """
    boot = ""
    try:
        with open("/proc/sys/kernel/random/boot_id") as f:
            boot = f.read().strip()
    except OSError:
        pass
    return f"{socket.gethostname()}:{boot}"


def segment_name(nonce: str, src: int, dst: int) -> str:
    """Name of the segment carrying src->dst traffic (owned by ``dst``)."""
    return f"repro_{nonce}_{src}t{dst}"


# ---------------------------------------------------------------------------
# SPSC byte ring
# ---------------------------------------------------------------------------

class _SpscRing:
    """Single-producer single-consumer byte ring over shared memory.

    ``head`` and ``tail`` are 64-bit monotonic byte counters living in
    the segment's control block; occupancy is ``head - tail`` and the
    data offset is ``counter % capacity``, so wrap-around never needs a
    modular comparison.  Discipline (enforced by the
    ``shm-ring-discipline`` lint rule): only producer-side methods
    (``write*``) store ``head``, only consumer-side methods (``read*``)
    store ``tail``; each side reads the other's counter but never
    writes it.  The segment is zero-filled on creation, so neither side
    initialises the counters.
    """

    __slots__ = ("_ctrl", "_head_off", "_tail_off", "_data", "_cap")

    def __init__(self, ctrl: memoryview, head_off: int, tail_off: int,
                 data: memoryview):
        #: the control block as 64-bit words (see the module's
        #: atomicity note); the counter offsets index it
        self._ctrl = ctrl.cast("Q")
        self._head_off = head_off // 8
        self._tail_off = tail_off // 8
        self._data = data
        self._cap = len(data)

    @property
    def capacity(self) -> int:
        return self._cap

    def release(self) -> None:
        """Drop the exported views so the segment mmap can close."""
        self._ctrl.release()
        self._data.release()

    def _load(self, off: int) -> int:
        return self._ctrl[off]

    def _store(self, off: int, value: int) -> None:
        self._ctrl[off] = value

    # -- producer side ------------------------------------------------------
    def write_free(self) -> int:
        """Bytes the producer could write right now without blocking."""
        return self._cap - (self._load(self._head_off)
                            - self._load(self._tail_off))

    def write_views(self, views, stall) -> int:
        """Vectored write: stream every view into the ring in order.

        A strided frame is thousands of small runs, so the counter
        loads are hoisted out of the per-view path and ``head`` is
        published once per filled stretch (data first, then the
        publish: a consumer that sees the new head is guaranteed to see
        the bytes on x86-64 TSO).  A full ring blocks via ``stall``
        after publishing what was copied, so the consumer overlaps and
        frames larger than the ring flow through in pieces.  Returns
        the byte count written."""
        data, cap = self._data, self._cap
        head = self._load(self._head_off)
        free = cap - (head - self._load(self._tail_off))
        start = head
        for mv in views:
            if not isinstance(mv, memoryview):
                mv = memoryview(mv)
            if mv.format != "B":
                mv = mv.cast("B")
            n = len(mv)
            sent = 0
            while sent < n:
                if free == 0:
                    # let the consumer see everything copied so far,
                    # then wait for drain
                    self._store(self._head_off, head)
                    stall()
                    free = cap - (head - self._load(self._tail_off))
                    if free:
                        stall.reset()
                    continue
                take = free if free < n - sent else n - sent
                pos = head % cap
                first = min(take, cap - pos)
                data[pos:pos + first] = mv[sent:sent + first]
                if take > first:
                    data[:take - first] = mv[sent + first:sent + take]
                sent += take
                head += take
                free -= take
        self._store(self._head_off, head)
        return head - start

    # -- consumer side ------------------------------------------------------
    def read_available(self) -> int:
        """Bytes the consumer could read right now without blocking."""
        return self._load(self._head_off) - self._load(self._tail_off)

    def read_some(self, views, stall) -> int:
        """Fill ``views`` (in order) with whatever is available, blocking
        via ``stall`` until at least one byte lands; returns the count."""
        tail = self._load(self._tail_off)
        while True:
            avail = self._load(self._head_off) - tail
            if avail:
                break
            stall()
        want = sum(len(v) for v in views)
        take = min(avail, want)
        left = take
        for v in views:
            if not left:
                break
            chunk = min(left, len(v))
            pos = tail % self._cap
            first = min(chunk, self._cap - pos)
            v[:first] = self._data[pos:pos + first]
            if chunk > first:
                v[first:chunk] = self._data[:chunk - first]
            tail += chunk
            left -= chunk
        self._store(self._tail_off, tail)
        return take

    def read_exact_views(self, views, stall) -> None:
        """Fill every view completely (the scatter walk: ring bytes land
        run by run in the posted buffer's windows)."""
        i, off = 0, 0
        views = [v for v in views if len(v)]
        while i < len(views):
            head = views[i][off:] if off else views[i]
            got = self.read_some([head] + views[i + 1:], stall)
            stall.reset()
            while got:
                room = len(views[i]) - off
                if got >= room:
                    got -= room
                    i += 1
                    off = 0
                else:
                    off += got
                    got = 0


# ---------------------------------------------------------------------------
# segment lifecycle
# ---------------------------------------------------------------------------

def _untrack(shm) -> None:
    """Detach an *attached* segment from this process's resource
    tracker: the attacher does not own the name, and Python < 3.13
    would otherwise unlink it when this process exits."""
    try:
        from multiprocessing import resource_tracker
        resource_tracker.unregister(shm._name, "shared_memory")
    except Exception:  # noqa: BLE001 - tracker internals vary by version
        pass


class ShmSegment:
    """One directed pair's shared segment: header + frame ring + region.

    Created (and later unlinked) by the receiving rank; the sending
    rank attaches by name.  Capacities are recorded in the header so
    the attacher never needs to agree on environment variables.
    """

    def __init__(self, name: str, create: bool,
                 ring: int | None = None, rndv: int | None = None):
        self.name = name
        self.owner = create
        if create:
            ring = ring if ring is not None else ring_bytes()
            rndv = rndv if rndv is not None else DEFAULT_RNDV_BYTES
            size = _DATA_OFF + ring + rndv
            self.shm = shared_memory.SharedMemory(name=name, create=True,
                                                  size=size)
            buf = self.shm.buf
            buf[0:8] = _MAGIC
            _SZ.pack_into(buf, 8, ring)
            _SZ.pack_into(buf, 16, rndv)
        else:
            self.shm = shared_memory.SharedMemory(name=name)
            _untrack(self.shm)
            buf = self.shm.buf
            if bytes(buf[0:8]) != _MAGIC:
                self.shm.close()
                raise ValueError(f"shm segment {name} has a bad magic")
            ring = _SZ.unpack_from(buf, 8)[0]
            rndv = _SZ.unpack_from(buf, 16)[0]
        self.ring_bytes = ring
        self.rndv_bytes = rndv
        self._ctrl = buf[:_DATA_OFF]
        self.frame = _SpscRing(buf[:_DATA_OFF], _FRAME_HEAD_OFF,
                               _FRAME_TAIL_OFF,
                               buf[_DATA_OFF:_DATA_OFF + ring])
        self.rndv = _SpscRing(buf[:_DATA_OFF], _RNDV_HEAD_OFF,
                              _RNDV_TAIL_OFF,
                              buf[_DATA_OFF + ring:_DATA_OFF + ring + rndv])
        self._closed = False
        # Doorbell: an abstract-namespace datagram socket named after
        # the segment.  The consumer (owner) binds it and sleeps in
        # select(); producers poke it — but only while the consumer
        # advertises it is asleep, so the steady-state data path makes
        # no syscalls at all.  Abstract names die with the process:
        # nothing to sweep after a SIGKILL.
        self._db_addr = f"\0{name}.db".encode()
        self.doorbell = socket.socket(socket.AF_UNIX, socket.SOCK_DGRAM)
        self.doorbell.setblocking(False)
        if create:
            try:
                self.doorbell.bind(self._db_addr)
            except OSError:
                self.shm.close()
                self.shm.unlink()
                raise

    # -- consumer-sleep handshake ------------------------------------------
    def set_sleeping(self) -> None:
        """Consumer: advertise the upcoming doorbell wait.  The caller
        must re-check ring occupancy *after* this store (and before
        sleeping) to close the publish/sleep race."""
        self._ctrl[_SLEEP_OFF] = 1

    def clear_sleeping(self) -> None:
        self._ctrl[_SLEEP_OFF] = 0

    def drain_doorbell(self) -> None:
        """Consumer: swallow queued pokes after a wakeup."""
        while True:
            try:
                self.doorbell.recv(16)
            except (BlockingIOError, OSError):
                return

    def poke(self) -> None:
        """Producer: wake the consumer iff it advertised a sleep.

        The flag store and the ring publish are plain stores (no fence
        between the producer's publish and this load), so an in-flight
        race can miss one poke — the consumer's bounded select timeout
        absorbs that.  The flag is cleared before ringing so a burst of
        publishes costs one datagram, not one per frame."""
        if self._ctrl[_SLEEP_OFF]:
            self._ctrl[_SLEEP_OFF] = 0
            try:
                self.doorbell.sendto(b"\0", self._db_addr)
            except OSError:
                pass   # receiver gone or queue full: either way it wakes

    def close(self) -> None:
        """Release views and unmap; unlink too when this side owns the
        name.  Idempotent, and unlink-by-name always runs even if a
        leaked view keeps the mapping alive."""
        if self._closed:
            return
        self._closed = True
        try:
            self.doorbell.close()
        except OSError:  # pragma: no cover - already closed
            pass
        try:
            self.frame.release()
            self.rndv.release()
            self._ctrl.release()
            self.shm.close()
        except BufferError:  # pragma: no cover - leaked view elsewhere
            pass
        if self.owner:
            self.unlink()

    def unlink(self) -> None:
        try:
            self.shm.unlink()   # also unregisters from the tracker
        except (FileNotFoundError, OSError):
            # someone else (launcher sweep, peer tracker) removed the
            # name first; drop our tracker entry so its shutdown scan
            # doesn't report a phantom leak
            _untrack(self.shm)


def create_inbound(nonce: str, rank: int, nprocs: int,
                   ring: int | None = None, rndv: int | None = None) \
        -> dict[tuple[int, int], ShmSegment]:
    """Create this rank's inbound segments (one per possible sender).

    Runs during bootstrap *before* the rank reports its mesh port, so
    by the time the launcher gossips the book every advertised segment
    exists — attachers never race creation.
    """
    segs: dict[tuple[int, int], ShmSegment] = {}
    try:
        for src in range(nprocs):
            if src == rank:
                continue
            segs[(src, rank)] = ShmSegment(
                segment_name(nonce, src, rank), create=True,
                ring=ring, rndv=rndv)
    except Exception:
        for seg in segs.values():
            seg.close()
        raise
    return segs


def attach_outbound(nonce: str, rank: int, peers) \
        -> dict[tuple[int, int], ShmSegment]:
    """Attach the segments owned by same-node ``peers`` for our sends."""
    segs: dict[tuple[int, int], ShmSegment] = {}
    for dst in peers:
        segs[(rank, dst)] = ShmSegment(segment_name(nonce, rank, dst),
                                       create=False)
    return segs


def unlink_job_segments(nonce: str, nprocs: int) -> list[str]:
    """Launcher-side sweep: unlink every segment a job could have
    created (fault-injected workers die by ``os._exit`` and clean up
    nothing).  Returns the names that were actually removed."""
    removed = []
    for src in range(nprocs):
        for dst in range(nprocs):
            if src == dst:
                continue
            name = segment_name(nonce, src, dst)
            try:
                seg = shared_memory.SharedMemory(name=name)
            except FileNotFoundError:
                continue
            except OSError:  # pragma: no cover - permission races
                continue
            try:
                seg.unlink()   # unregisters the attach's tracker entry
            except (FileNotFoundError, OSError):
                _untrack(seg)
            seg.close()
            removed.append(name)
    return removed


def leaked_segments(nonce: str, nprocs: int) -> list[str]:
    """Job segments still present in ``/dev/shm`` (test assertions)."""
    out = []
    for src in range(nprocs):
        for dst in range(nprocs):
            if src != dst and os.path.exists(
                    f"/dev/shm/{segment_name(nonce, src, dst)}"):
                out.append(segment_name(nonce, src, dst))
    return out


# ---------------------------------------------------------------------------
# channel: a socket-shaped endpoint over one directed pair's rings
# ---------------------------------------------------------------------------

class _Stall:
    """One blocked ring wait: yields, then sleeps with exponential
    backoff; checks teardown/peer-death every pause; registers a
    sanitizer wait-for edge ("blocked on ring space / ring data") once
    the block outlives a probe interval."""

    __slots__ = ("chan", "what", "edge_rank", "edge_peer", "_n", "_bw",
                 "_next_tick")

    def __init__(self, chan: "ShmChannel", what: str,
                 edge: tuple[int, int] | None = None):
        self.chan = chan
        self.what = what
        self.edge_rank, self.edge_peer = edge if edge else (None, None)
        self._n = 0
        self._bw = None
        self._next_tick = 0.0

    def __call__(self) -> None:
        chan = self.chan
        if chan.dead.is_set():
            self.finish()
            raise ConnectionError(
                f"shm peer rank dead ({chan.tx[0]}->{chan.tx[1]})")
        closing = chan.closing
        if closing is not None and closing.is_set():
            self.finish()
            raise ConnectionError("peer closed")
        if self.edge_rank is not None:
            # producer-side wait (ring/region full): the consumer may
            # have gone to sleep before we filled it — ring its bell so
            # it comes back and drains
            chan.seg.poke()
        n = self._n
        self._n = n + 1
        if n < _SPIN_YIELDS:
            time.sleep(0)
        else:
            time.sleep(min(_SLEEP_BASE * (1 << min(n - _SPIN_YIELDS, 5)),
                           _SLEEP_MAX))
            if chan.stats is not None:
                chan.stats.add("stall_sleeps")
            self._sanitize_tick()

    def reset(self) -> None:
        """Progress was made: restart the backoff curve."""
        self._n = 0

    def _sanitize_tick(self) -> None:
        san = self.chan.sanitizer
        if san is None or self.edge_rank is None:
            return
        now = time.monotonic()
        if self._bw is None:
            self._bw = san.transport_wait_begin(self.edge_rank,
                                                self.edge_peer, self.what)
            self._next_tick = now + san.probe_interval
            return
        if now >= self._next_tick:
            san.transport_wait_tick(self._bw)
            self._next_tick = now + san.probe_interval

    def finish(self) -> None:
        """Unregister the sanitizer edge (always called on the way out)."""
        if self._bw is not None:
            self.chan.sanitizer.transport_wait_end(self._bw)
            self._bw = None


class RingWait:
    """The ring pump's wait step: poll the inbound rings, yield the
    core a couple of times, then advertise a sleep, re-check, and park
    in ``select()`` on the segments' doorbells — a sleeping pump costs
    the scheduler nothing, which matters when every local rank shares
    one core.  Channels marked dead (by the pump on an error, or by the
    failure plane) are skipped."""

    def __init__(self, chans):
        self._chans = list(chans)
        self._idle = 0

    def ready(self) -> list:
        live = [ch for ch in self._chans if not ch.dead.is_set()]
        ready = [ch for ch in live if ch.frame_readable() >= HEADER_SIZE]
        if ready:
            self._idle = 0
            return ready
        self._idle += 1
        if self._idle < _PUMP_YIELDS:
            time.sleep(0)
            return ready
        self._idle = 0
        # advertise the sleep, then re-check occupancy: a producer that
        # published before seeing the flag is caught here, one that
        # published after will poke the doorbell
        for chan in live:
            chan.seg.set_sleeping()
        woken = []
        if not any(ch.frame_readable() >= HEADER_SIZE for ch in live):
            try:
                woken = select.select([ch.seg.doorbell for ch in live],
                                      [], [], _DOORBELL_TIMEOUT)[0]
            except OSError:  # pragma: no cover - teardown closed a fd
                pass
        for chan in live:
            chan.seg.clear_sleeping()
            if chan.seg.doorbell in woken:
                chan.seg.drain_doorbell()
        return ready

    def drop(self, chan) -> None:
        self._chans.remove(chan)

    def close(self) -> None:
        pass


class ShmChannel:
    """One direction (src -> dst) of a pair, as a wire channel.

    Implements the channel surface :mod:`repro.transport.wire` drives
    (see its module docstring): ``sendall`` / ``sendmsg`` /
    ``recv_into`` / ``recvmsg_into`` over the frame ring, so the whole
    eager protocol — framing, header peek, direct landing into
    posted-buffer views — runs unchanged; the bulk lane
    (``send_rndv`` / ``read_rndv_views``) over the rendezvous region.
    Frame atomicity on the ring comes from ``lock`` (the
    single-producer discipline); the region's single producer is the
    transport's writer thread by construction.
    """

    __slots__ = ("seg", "tx", "rx", "lock", "dead", "eager_capacity",
                 "closing", "stats", "sanitizer")

    #: a ring has no EOF: an error here says a wait was cut short, not
    #: that the peer is gone — the heartbeat plane owns that diagnosis
    eof_is_peer_loss = False
    waiter = RingWait

    def __init__(self, seg: ShmSegment, src: int, dst: int):
        self.seg = seg
        self.tx = self.rx = (src, dst)
        self.lock = threading.Lock()
        #: set when the peer rank is declared failed: a ring has no EOF,
        #: so this flag is how blocked waits learn the peer is gone
        self.dead = threading.Event()
        #: a frame that fits the ring whole stays eager: same two
        #: copies as rendezvous, without the handshake's two wakeups
        self.eager_capacity = seg.ring_bytes
        self.bind(None, None)

    def bind(self, closing, stats, sanitizer=None) -> None:
        self.closing = closing
        self.stats = stats
        self.sanitizer = sanitizer

    def _send_stall(self, what: str) -> _Stall:
        return _Stall(self, what, edge=self.tx)

    # -- producer (sender process) -----------------------------------------
    def sendall(self, data) -> None:
        stall = self._send_stall("ring-space")
        try:
            self.seg.frame.write_views([data], stall)
            self.seg.poke()
        finally:
            stall.finish()

    def sendmsg(self, bufs) -> int:
        """Vectored frame write; returns the full byte count (the ring
        never short-writes — it streams).  The ``shm.ring`` fault site
        sits between the header and the body, so an injected death
        leaves a half-written frame for the survivor to cope with."""
        stall = self._send_stall("ring-space")
        try:
            total = self.seg.frame.write_views(bufs[:1], stall)
            if len(bufs) > 1:
                faultinject.maybe_fail("shm.ring", self.tx[0])
                total += self.seg.frame.write_views(bufs[1:], stall)
            self.seg.poke()
        finally:
            stall.finish()
        return total

    def send_rndv(self, header: bytes, body) -> None:
        """Bulk lane: notify on the frame ring, payload into the region
        (writer thread).  Notify first, then stream: the receiver
        consumes the region while the payload is still landing, so a
        payload larger than the region flows through it."""
        framed_send(self, header)
        stall = self._send_stall("rndv-space")
        try:
            self.seg.rndv.write_views(
                body if isinstance(body, (list, tuple)) else [body], stall)
            self.seg.poke()
        finally:
            stall.finish()

    # -- consumer (receiver process) ---------------------------------------
    def frame_readable(self) -> int:
        return self.seg.frame.read_available()

    def recv_into(self, view) -> int:
        stall = _Stall(self, "ring-data")
        try:
            return self.seg.frame.read_some([view], stall)
        finally:
            stall.finish()

    def recvmsg_into(self, bufs):
        stall = _Stall(self, "ring-data")
        try:
            return (self.seg.frame.read_some(bufs, stall),)
        finally:
            stall.finish()

    def read_rndv_views(self, views) -> None:
        """The rendezvous scatter: region bytes land run by run in the
        posted user buffer's writable views — no staging copy."""
        stall = _Stall(self, "rndv-data")
        try:
            self.seg.rndv.read_exact_views(views, stall)
        finally:
            stall.finish()

    def shutdown(self) -> None:
        """Nothing to wake: ring waits poll the transport's teardown
        flag every pause."""

    def close(self) -> None:
        self.seg.close()


def shm_world(nprocs: int, nonce: str | None = None,
              ring: int | None = None, rndv: int | None = None) \
        -> WireTransport:
    """In-process ring-only transport hosting every rank (tests, thread
    mode).

    Creates all pair segments locally; closing the transport unlinks
    them.  The data path is byte-for-byte the one worker processes use
    — same rings, same framing, same region — minus the bootstrap and
    the sockets (so control kinds ride the rings too).
    """
    if nonce is None:
        nonce = f"w{os.getpid():x}{int(time.monotonic_ns()) & 0xffffff:x}"
    chans: list[ShmChannel] = []
    try:
        for src in range(nprocs):
            for dst in range(nprocs):
                if src != dst:
                    chans.append(ShmChannel(ShmSegment(
                        segment_name(nonce, src, dst), create=True,
                        ring=ring, rndv=rndv), src, dst))
    except Exception:
        for chan in chans:
            chan.close()
        raise
    return WireTransport(nprocs, range(nprocs), chans)
