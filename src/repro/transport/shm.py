"""Shared-memory bulk lanes: where same-host pairs put large bodies.

On one host, procs-DM ranks talk through loopback TCP — two kernel
crossings and two copies through socket buffers per payload byte.  This
module gives each directed same-host pair one POSIX shared-memory
segment holding a byte ring, the way production MPIs structure their
large-message path (MPICH Nemesis' LMT, Open MPI sm/vader).  It holds
no transport and no frame stream of its own: a :class:`ShmChannel` is
attached to the pair's :class:`~repro.transport.wire.Channel`, every
header still rides that socket, and a header flagged ``FLAG_BULK`` says
its body is here.

* **Per-direction SPSC ring** (:class:`_SpscRing`) — each directed pair
  (src -> dst) owns one segment, created by the *receiver* during
  bootstrap.  The ring is a *byte stream* with 64-bit monotonic
  head/tail counters: the producer only ever advances ``head``, the
  consumer only ever advances ``tail`` (see the ``shm-ring-discipline``
  lint rule), a body of any size streams through (one larger than the
  ring flows in pieces as the consumer drains), and a full ring blocks
  the producer through an adaptive yield-then-sleep backoff — never a
  hot spin.  The receiver scatters ring bytes *directly into the posted
  buffer* via the layout IR's run views — strided receives stay
  zero-staging.
* **Why only bulk** — a parked reader has to be woken through the
  kernel either way, so for a latency-bound message a ring can never
  cost less than sending the frame on the socket the pair already has;
  the lane earns its keep where copies dominate (>= the eager limit).
* **Why not always** — a ring costs two copies (producer in, consumer
  out).  Where the kernel lets a rank read its peer's memory
  (:mod:`repro.transport.cma`, found out by a bootstrap probe) the
  receiver gets such a payload in one, and the pair's lanes sit idle.
  The ring is the bulk path wherever that read is refused — Yama
  ``ptrace_scope`` 2/3, seccomp'd containers, non-Linux — and is kept
  under test by denying the probe (``REPRO_FAULT=cma.probe:<r>::deny``).
  Bodies carry no framing: lane byte order equals the order of flagged
  headers on the socket, because the sender writes each header-then-body
  pair under the pair's one write lock.
* **No EOF** — a dead peer produces nothing on a shared ring.  The
  pair's socket stays the failure detector: the transport marks a failed
  peer's channels ``dead`` so blocked lane waits unwind with
  ``ConnectionError``, and a reader stalled on lane data peeks the socket
  for the EOF of a sender that died between header and body.
* **Segment lifecycle** — a job's segment names all derive from one
  nonce (:func:`segment_name`).  Each rank creates its inbound segments
  (``O_EXCL``) during bootstrap, before it sends its peers its hello,
  and each sender attaches by name once it has read that hello.  Both
  sides map the segment and close the fd (:func:`map_segment`); neither
  registers it with ``multiprocessing``'s resource tracker, which is an
  interpreter of its own that a process's first registration starts
  (3.11 has no ``track=False``).  What unlinks the names instead:

  - a rank that finalizes unlinks its inbound names (the owner's
    :meth:`ShmSegment.close`); an attacher's close leaves them;
  - a rank that dies any other way (an injected fault's ``os._exit``,
    SIGKILL, the launcher or the job's proxy gone) is swept by the
    zygote, which unlinks the job's names after it has reaped the job's
    proxy, whatever its exit status (:func:`unlink_job_segments`);
  - a zygote that dies is swept by the launcher, which unlinks the
    names on every way out of ``ProcExecutor.run``;
  - an in-process world (:func:`shm_world`) unlinks when it closes.

  Only a launcher killed together with its zygote leaves names in
  ``/dev/shm``.

Escape hatch: ``REPRO_SHM=0`` disables the lanes entirely (every body
rides the socket).  The capacity is recorded in the segment header, so
an attacher never needs to be told it.

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

import errno
import mmap
import os
import socket
import struct
import threading
import time

try:
    import _posixshmem
except ImportError:  # pragma: no cover - not POSIX: no lanes
    _posixshmem = None

from repro.transport import cma
from repro.transport.socket_tcp import mesh
from repro.transport.wire import Channel, WireTransport

__all__ = ["ShmChannel", "ShmSegment",
           "segment_name", "map_segment", "unlink_segment",
           "create_inbound", "shm_world", "unlink_job_segments",
           "leaked_segments"]

#: lane capacity (bytes).  Frames at or above the eager limit that fit
#: whole skip the rendezvous handshake; larger ones stream through
DEFAULT_RNDV_BYTES = 4 << 20

#: segment header: magic(8) | rndv_bytes(8), then the two ring counters
#: each on their own cache line (false sharing)
_MAGIC = b"RPSHM02\x00"
_SZ = struct.Struct("<Q")
_HEAD_OFF = 64
_TAIL_OFF = 128
_DATA_OFF = 192

#: backoff shape for blocked ring waits: a few scheduler yields, then
#: exponentially growing sleeps — a blocked side must never burn the
#: core its peer needs to make progress (we may share one core)
_SPIN_YIELDS = 64
_SLEEP_BASE = 50e-6
_SLEEP_MAX = 500e-6


def segment_name(nonce: str, src: int, dst: int) -> str:
    """Name of the segment carrying src->dst traffic (owned by ``dst``)."""
    return f"repro_{nonce}_{src}t{dst}"


def _job_names(nonce: str, nprocs: int):
    """Every segment name a job of ``nprocs`` ranks can create."""
    return [segment_name(nonce, src, dst) for src in range(nprocs)
            for dst in range(nprocs) if src != dst]


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

def map_segment(name: str, size: int | None = None) -> mmap.mmap:
    """Map the shared segment ``name``: create it at ``size`` bytes
    (``O_EXCL``: an existing name raises ``FileExistsError``), or attach
    to the whole of it when ``size`` is None.

    What the standard library's ``SharedMemory`` does, minus its
    registration with the resource tracker.  The fd opened here is
    closed, but ``mmap`` keeps a dup of it for the mapping's lifetime,
    so each mapped segment holds one fd.
    An ``OSError`` here (no ``/dev/shm``, no POSIX shared memory at all)
    is what turns a rank's lanes off."""
    if _posixshmem is None:
        raise OSError(errno.ENOSYS, "no POSIX shared memory here")
    flags = os.O_RDWR | (os.O_CREAT | os.O_EXCL if size is not None else 0)
    fd = _posixshmem.shm_open("/" + name, flags, mode=0o600)
    try:
        if size is not None:
            os.ftruncate(fd, size)   # a new segment reads as zeros
        return mmap.mmap(fd, 0)
    except BaseException:
        if size is not None:
            unlink_segment(name)
        raise
    finally:
        os.close(fd)


def unlink_segment(name: str) -> bool:
    """Remove ``name`` from the shared-memory namespace; mappings stay
    valid until unmapped.  False: it was already gone."""
    try:
        _posixshmem.shm_unlink("/" + name)
    except FileNotFoundError:
        return False
    return True


class ShmSegment:
    """One directed pair's shared segment: header + the lane's ring.

    Created (and later unlinked) by the receiving rank; the sending
    rank attaches by name.  The capacity is recorded in the header so
    the attacher never needs to be told it.
    """

    def __init__(self, name: str, create: bool, rndv: int | None = None):
        self.name = name
        self.owner = create
        if create:
            rndv = rndv if rndv is not None else DEFAULT_RNDV_BYTES
            self._mmap = map_segment(name, _DATA_OFF + rndv)
            buf = self._buf = memoryview(self._mmap)
            buf[0:8] = _MAGIC
            _SZ.pack_into(buf, 8, rndv)
        else:
            self._mmap = map_segment(name)
            buf = self._buf = memoryview(self._mmap)
            if bytes(buf[0:8]) != _MAGIC:
                buf.release()
                self._mmap.close()
                raise ValueError(f"shm segment {name} has a bad magic")
            rndv = _SZ.unpack_from(buf, 8)[0]
        self.rndv = _SpscRing(buf[:_DATA_OFF], _HEAD_OFF, _TAIL_OFF,
                              buf[_DATA_OFF:_DATA_OFF + rndv])
        self._closed = False

    def close(self) -> None:
        """Release views and unmap; unlink too when this side owns the
        name.  Idempotent, and unlink-by-name always runs even if a
        leaked view keeps the mapping alive."""
        if self._closed:
            return
        self._closed = True
        try:
            self.rndv.release()
            self._buf.release()
            self._mmap.close()
        except BufferError:  # pragma: no cover - leaked view elsewhere
            pass
        if self.owner:
            unlink_segment(self.name)


def create_inbound(nonce: str, rank: int, nprocs: int,
                   rndv: int | None = None) \
        -> dict[tuple[int, int], ShmSegment]:
    """Create this rank's inbound segments (one per possible sender).

    Runs during bootstrap *before* the rank sends its peers its hello,
    so every segment a hello advertises exists — attachers never race
    creation.
    """
    segs: dict[tuple[int, int], ShmSegment] = {}
    try:
        for src in range(nprocs):
            if src == rank:
                continue
            segs[(src, rank)] = ShmSegment(
                segment_name(nonce, src, rank), create=True, rndv=rndv)
    except Exception:
        for seg in segs.values():
            seg.close()
        raise
    return segs


def unlink_job_segments(nonce: str, nprocs: int) -> list[str]:
    """The sweep after a job: unlink, by name, every segment the job
    could have created (a rank that dies by ``os._exit`` or SIGKILL
    unlinks nothing).  Returns the names that were actually removed."""
    if _posixshmem is None:
        return []
    return [name for name in _job_names(nonce, nprocs)
            if unlink_segment(name)]


def leaked_segments(nonce: str, nprocs: int) -> list[str]:
    """Job segments still present in ``/dev/shm`` (test assertions)."""
    return [name for name in _job_names(nonce, nprocs)
            if os.path.exists(f"/dev/shm/{name}")]


# ---------------------------------------------------------------------------
# the lane: one directed pair's ring as a byte surface
# ---------------------------------------------------------------------------

class _Stall:
    """One blocked ring wait: yields, then sleeps with exponential
    backoff; checks teardown/peer-death every pause; registers a
    sanitizer wait-for edge ("blocked on lane space") once a producer's
    block outlives a probe interval."""

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
        n = self._n
        self._n = n + 1
        if n < _SPIN_YIELDS:
            time.sleep(0)
            return
        if self.edge_rank is None and chan.peer_gone is not None \
                and chan.peer_gone():
            # consumer-side wait: the sender died between its header
            # and this body, and its socket has said so
            raise ConnectionError(
                f"shm peer closed mid-body ({chan.tx[0]}->{chan.tx[1]})")
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


class ShmChannel:
    """One direction (src -> dst) of a pair's bulk lane: the segment's
    ring as a byte surface.

    The producer side (``sendall``) belongs to whichever thread holds
    the pair's write lock, the consumer side (``recv_into`` /
    ``read_views``) to the receiving rank's pump — that is the ring's
    single-producer / single-consumer discipline.  ``dead`` and
    ``peer_gone`` are the pair's socket's once the lane is attached to a
    :class:`~repro.transport.wire.Channel`.
    """

    __slots__ = ("seg", "tx", "dead", "peer_gone", "closing", "stats",
                 "sanitizer")

    def __init__(self, seg: ShmSegment, src: int, dst: int):
        self.seg = seg
        self.tx = (src, dst)
        #: set when the peer rank is declared failed: a ring has no EOF,
        #: so this flag is how blocked waits learn the peer is gone
        self.dead = threading.Event()
        self.peer_gone = None
        self.bind(None, None)

    def bind(self, closing, stats, sanitizer=None) -> None:
        self.closing = closing
        self.stats = stats
        self.sanitizer = sanitizer

    @property
    def capacity(self) -> int:
        return self.seg.rndv.capacity

    # -- producer (sender process) -----------------------------------------
    def sendall(self, body) -> None:
        """Stream ``body`` — a buffer or an iovec list of them — into
        the ring; one larger than the ring flows through as the consumer
        drains."""
        stall = _Stall(self, "lane-space", edge=self.tx)
        try:
            self.seg.rndv.write_views(
                body if isinstance(body, (list, tuple)) else [body], stall)
        finally:
            stall.finish()

    # -- consumer (receiver process) ---------------------------------------
    def recv_into(self, view) -> int:
        stall = _Stall(self, "lane-data")
        try:
            return self.seg.rndv.read_some([view], stall)
        finally:
            stall.finish()

    def read_views(self, views) -> None:
        """The scatter: ring bytes land run by run in the posted user
        buffer's writable views — no staging copy."""
        stall = _Stall(self, "lane-data")
        try:
            self.seg.rndv.read_exact_views(views, stall)
        finally:
            stall.finish()

    def close(self) -> None:
        self.seg.close()


def shm_world(nprocs: int, nonce: str | None = None,
              rndv: int | None = None) -> WireTransport:
    """In-process world hosting every rank (tests, thread mode): a
    socketpair per pair plus a lane per direction.

    Creates all pair segments locally; closing the transport unlinks
    them.  The data path is byte-for-byte the one same-host worker
    processes use, minus the bootstrap: each endpoint runs the workers'
    capability probe against this process's own pid, so an in-process
    pair takes the single-copy get exactly when cross-process pairs on
    this host would.
    """
    if nonce is None:
        nonce = f"w{os.getpid():x}{int(time.monotonic_ns()) & 0xffffff:x}"
    segs: dict[tuple[int, int], ShmSegment] = {}
    try:
        for dst in range(nprocs):
            segs.update(create_inbound(nonce, dst, nprocs, rndv))
    except Exception:
        for seg in segs.values():
            seg.close()
        raise
    chans = []
    pid, address, value = cma.advert()
    for me, row in enumerate(mesh(nprocs, socket.socketpair)):
        for peer, sock in row.items():
            # two views of each segment, as in two processes: each
            # endpoint's lanes carry that endpoint's ``dead`` flag
            chan = Channel(sock, me, peer)
            chan.attach_lanes(ShmChannel(segs[me, peer], me, peer),
                              ShmChannel(segs[peer, me], peer, me))
            if cma.probe(me, pid, address, value):
                chan.cma_pid = pid
            chans.append(chan)
    return WireTransport(nprocs, range(nprocs), chans)
