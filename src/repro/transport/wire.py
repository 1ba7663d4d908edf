"""The wire transport: one protocol engine, one frame stream per pair.

Everything between "the runtime handed the transport an envelope" and
"bytes reached the peer" lives here, once.  :class:`WireTransport` is
the only transport that speaks the wire format of
:mod:`repro.runtime.envelope`, over one :class:`Channel` per rank pair.
``SocketTransport``, ``TCPMeshTransport`` and ``shm_world`` are
constructors that build a channel list and return this one class.

* **Channel** — a pair's stream socket: its own byte surface
  (``sendall`` / ``sendmsg`` / ``recv_into`` / ``recvmsg_into``), the
  directed pairs it writes (``tx``) and reads (``rx``), its write
  ``lock`` and ``dead`` flag.  *Every* frame header — DATA, RTS, CTS,
  ACK, RNDV_DATA, control — rides this socket, so the per-pair FIFO that
  MPI's non-overtaking rule needs lives in one place, and the peer's EOF
  is the failure signal.
* **Bulk lane** — optionally, one shared-memory byte ring per direction
  (``lane_tx`` / ``lane_rx``, :class:`repro.transport.shm.ShmChannel`;
  the MPICH Nemesis split between a small-message queue and a
  large-message-transfer lane).  A header carrying ``FLAG_BULK`` says
  "my body is in the lane": the sender writes header-then-body under the
  pair's one write lock, so lane byte order equals header order on the
  socket, and the pump takes that body from the lane instead of the
  stream.  Only payloads at or above :func:`eager_limit` use it.
* **Vectored framed I/O** — header and payload go out in a single
  ``sendmsg([header, view])`` call (one syscall, zero payload copies on
  the send side: :func:`repro.runtime.envelope.encode` returns buffer
  views, not ``tobytes()`` copies).  Noncontiguous (derived datatype)
  payloads ride the same call as a run iovec with no gather copy at
  all.  Posted strided receives land via scattering ``recvmsg_into``
  over the layout IR's per-run views.
* **Read buffer** — a pump reads a channel's stream up to
  :data:`READ_BUFFER` bytes at a time into its one buffer and cuts
  frames from it in place.  A small staged body (under half the buffer)
  is decoded from it, ``borrowed`` until the pump reads again; a body
  landing elsewhere (posted window, rendezvous sink, :class:`RecvPool`)
  gets the buffered part copied in and the rest read straight into it.
* **Eager/rendezvous protocol** — payloads at or above
  :func:`eager_limit` bytes do not travel with their header.  If the
  frame fits the pair's lane whole (``payload + HEADER_SIZE`` within its
  capacity; a plain socket's capacity is 0) it stays eager with its body
  in the lane: same two copies as rendezvous, without the handshake's
  two wakeups.  Otherwise the sender parks the payload and ships a
  header-only ``KIND_RTS`` frame; the receiver replies ``KIND_CTS`` once
  a matching receive is posted; the payload then moves in a
  ``KIND_RNDV_DATA`` frame routed by ``(source, seq)`` — body in the
  lane when there is one, streaming through it if larger — for directly
  landable receives straight into the posted user buffer (zero staging
  copies).  ``Ssend`` piggybacks on the handshake: the CTS *is* the
  match notification, so no separate ACK frame is needed.  Buffered- and
  ready-mode sends stay eager on the stream regardless of size (their
  completion semantics are local).
* **Single-copy get** — on a same-host pair whose capability probe
  passed (``Channel.cma_pid``; :mod:`repro.transport.cma`) every such
  payload instead travels RTS-with-cookie -> get -> DONE: the RTS body
  is the payload's ``[address, length]`` table in the sender's address
  space (header flag ``FLAG_CMA``), the thread that matches it reads the
  bytes with ``process_vm_readv`` straight into the posted receive's
  views, and a header-only DONE (a CTS carrying ``FLAG_CMA``) releases
  the parked send.  One copy instead of the lane's two, two frames
  instead of three, no writer thread on the data path.  Nothing selects
  it but the probes: a sender attaches the cookie iff *its* probe of the
  peer passed, a receiver takes the get iff *its* probe of the sender
  passed and otherwise answers an ordinary CTS, which the sender serves
  from the same parked envelope through the lane or the stream.
* **One writer thread** — writes what a pump thread must not: parked
  rendezvous payloads, every pump-originated control frame (CTS, DONE,
  sync ACKs) and every pump-originated *send* above
  :data:`PUMP_INLINE_MAX` bytes.  A pump does write, for nonblocking
  collectives only: an ``I*`` schedule's continuation runs in whichever
  thread completed the round's last sub-request — here the pump — and
  issues the next round's sends inline
  (:mod:`repro.runtime.nbc.progress`; a *blocking* collective runs its
  rounds in the calling rank thread and never writes from a pump, and a
  send this thread queues is not complete — nor its round over — until
  it is written).  But a pump blocked in ``sendall`` — or on a channel
  lock held by a writer mid-stream — stops draining its own channels,
  and two peers in that state deadlock.  So a pump writes only what a
  socket buffer takes without
  stalling (at most :data:`PUMP_INLINE_MAX` bytes); anything larger, and
  anything to a channel that still has such a send queued (per-pair
  order is MPI's non-overtaking rule), goes to the writer, which may
  block because every channel is still being drained.
* **One pump per local rank** (:meth:`WireTransport._pump`) — polls
  the rank's sockets (one ``poll``, an fd -> channel dict), drains each
  readable one (every whole frame one read brought; it polls again when
  less than a header is left), and
  turns a peer's EOF — behind the frames completed before it — into the
  ``KIND_PEERFAIL`` that unblocks everything waiting on it.
  Any other exception escaping a delivery would end the thread and
  park every later receive of the rank forever, so it becomes a
  ``KIND_ABORT`` carrying that exception — delivered to this rank, then
  broadcast: the ranks unwind and the launcher reports the cause.
  The same thread may be sitting in a lane read when the peer dies
  between header and body, so a stalled lane read peeks the pair's
  socket for that EOF.

RTS frames travel the same stream as eager DATA frames, so *matching*
order is exactly send-call order; the out-of-band RNDV_DATA frame is
routed by ``(source, seq)``, never matched.
"""

from __future__ import annotations

import errno
import queue
import select
import socket
import threading

import numpy as np

from repro import config
from repro.datatypes.layout import WIRE_IOV_CAP
from repro.obs.metrics import CounterGroup
from repro.obs.trace import TRACE
from repro.runtime import envelope as ev
from repro.runtime.envelope import Envelope
from repro.transport import cma
from repro.transport.base import Transport
from repro.util import faultinject

#: eager/rendezvous switchover (bytes, 1 MiB by default); messages >=
#: this size take the RTS/CTS handshake.  Below it, eager frames still land
#: zero-copy when the receive is already posted (header-peek direct
#: landing), so the handshake only pays off once the *unexpected* claim
#: copy (and unexpected-queue memory) would hurt — hence a higher
#: default than 1999-era MPIs used: their daemons staged every eager
#: byte, ours stages none on the posted path.  Tune with
#: REPRO_EAGER_LIMIT or :func:`set_eager_limit`.
_eager_limit = config.eager_limit()


def eager_limit() -> int:
    """Current eager/rendezvous threshold in bytes."""
    return _eager_limit


def set_eager_limit(nbytes: int) -> int:
    """Set the threshold; returns the previous value (for restoring)."""
    global _eager_limit
    prev = _eager_limit
    _eager_limit = int(nbytes)
    return prev


#: below this payload size the pump skips the header-peek direct-landing
#: attempt: for tiny messages the posted-queue claim (lock, peek object,
#: view construction) costs more than the one staging copy it avoids
DIRECT_EAGER_MIN = 4096


#: largest payload a pump thread writes inline (see the module
#: docstring).  The kernel takes a write this size into a drained
#: channel without waiting on the peer: Linux's default buffers are
#: ~208 KiB for a Unix socket pair's sender and 128 KiB for a loopback
#: TCP receiver.  It is also one READ_BUFFER, so the peer's pump takes
#: the frame in a read or two
PUMP_INLINE_MAX = 64 * 1024


def set_nodelay(sock: socket.socket) -> None:
    """Best-effort TCP_NODELAY (no-op on non-TCP carriers)."""
    try:
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
    except OSError:
        pass


# -- byte-level primitives ----------------------------------------------------

#: iovec entries per scatter/gather syscall — the same kernel IOV_MAX
#: budget the layout IR's wire_friendly gate admits, declared once
IOV_BATCH = WIRE_IOV_CAP


def body_nbytes(body) -> int:
    """Byte length of a frame body: a buffer or an iovec list of them."""
    if isinstance(body, (list, tuple)):
        return sum(len(v) for v in body)
    return len(body)


def payload_table(env: Envelope) -> np.ndarray:
    """The ``[address, length]`` table of ``env``'s payload in this
    process: one row for a dense array, one per layout run for an
    :class:`~repro.runtime.envelope.IOVecPayload`.  A strided dense
    payload is first replaced by a contiguous copy, which the (parked)
    envelope then keeps alive like any other."""
    payload = env.payload
    if type(payload) is ev.IOVecPayload:
        return cma.address_table(payload.views)
    if not payload.flags.c_contiguous:
        env.payload = payload = np.ascontiguousarray(payload)
    return cma.address_table([payload])


def send_frame(sock: socket.socket, header: bytes, body=b"") -> None:
    """One framed write: header+payload in a single vectored syscall.

    ``body`` may be a list of buffer views (a noncontiguous layout's
    run iovec): header and every run then leave in one
    ``sendmsg([header, run0, run1, ...])``.
    """
    if isinstance(body, (list, tuple)):
        send_frame_vectored(sock, header, body)
        return
    if not len(body):
        sock.sendall(header)
        return
    sent = sock.sendmsg([header, body])
    if sent < len(header) + len(body):
        send_rest(sock, header, body, sent)


def send_rest(sock: socket.socket, header: bytes, body, sent: int) -> None:
    """Finish a ``sendmsg([header, body])`` that moved only ``sent``."""
    if sent < len(header):
        sock.sendall(memoryview(header)[sent:])
        sock.sendall(body)
    else:
        sock.sendall(body[sent - len(header):])


def _drive_vectored(bufs, xfer) -> None:
    """Cursor loop shared by vectored send and receive.

    ``xfer(batch)`` moves some bytes through one scatter/gather syscall
    and returns the count; the cursor resumes across short transfers
    (re-slicing only the partially-moved head view) and batches at
    IOV_BATCH entries per call (kernels cap an iovec at IOV_MAX).
    """
    i, off = 0, 0
    while i < len(bufs):
        head = bufs[i][off:] if off else bufs[i]
        moved = xfer([head] + bufs[i + 1:i + IOV_BATCH])
        while moved:
            avail = len(bufs[i]) - off
            if moved >= avail:
                moved -= avail
                i += 1
                off = 0
            else:
                off += moved
                moved = 0


def send_frame_vectored(sock: socket.socket, header: bytes, views) -> None:
    """Write header + every view with gathering ``sendmsg`` calls."""
    bufs = [memoryview(header)]
    bufs += [v for v in views if len(v)]
    _drive_vectored(bufs, sock.sendmsg)


def recv_exact(sock: socket.socket, n: int) -> bytes:
    """Read exactly ``n`` bytes or raise ConnectionError on EOF."""
    chunks = []
    while n:
        chunk = sock.recv(n)
        if not chunk:
            raise ConnectionError("peer closed")
        chunks.append(chunk)
        n -= len(chunk)
    return b"".join(chunks)


def recv_exact_into(sock: socket.socket, view: memoryview) -> None:
    """Fill ``view`` from the socket or raise ConnectionError on EOF."""
    got, n = 0, len(view)
    while got < n:
        r = sock.recv_into(view[got:] if got else view)
        if not r:
            raise ConnectionError("peer closed")
        got += r


def recv_exact_into_views(sock: socket.socket, views) -> None:
    """Fill every view, in order, with scattering ``recvmsg_into`` calls.

    The multi-run landing primitive: one syscall fills many runs of the
    posted user buffer directly from the socket.  Raises ConnectionError
    on EOF.
    """
    def rx(batch):
        got = sock.recvmsg_into(batch)[0]
        if not got:
            raise ConnectionError("peer closed")
        return got

    _drive_vectored([v for v in views if len(v)], rx)


class RecvPool:
    """A pump thread's reusable buffer for staged bodies its channels'
    read buffers do not hold, grown on demand to the largest seen.
    Views handed out are valid only until the next :meth:`body` call —
    exactly the envelope ``borrowed`` contract.
    """

    __slots__ = ("_buf",)

    def __init__(self):
        self._buf = bytearray()

    def body(self, nbytes: int) -> memoryview:
        if nbytes > len(self._buf):
            self._buf = bytearray(1 << max(16, nbytes - 1).bit_length())
        return memoryview(self._buf)[:nbytes]


#: bytes one read of a channel's stream may take (its pump's read buffer)
READ_BUFFER = 64 * 1024


def fill(chan) -> None:
    """Append what the kernel holds to ``chan``'s read buffer."""
    got = chan.recv_into(chan.rbuf[chan.rend:])
    if not got:
        raise ConnectionError("peer closed")
    chan.rend += got


def compact(chan) -> None:
    """Move the unread tail of ``chan``'s read buffer to its front."""
    held = chan.rend - chan.rstart
    chan.rbuf[:held] = chan.rbuf[chan.rstart:chan.rend]
    chan.rstart, chan.rend = 0, held


# -- channels -----------------------------------------------------------------

def framed_send(chan, header: bytes, body=b"", bulk: bool = False) -> int:
    """One frame onto ``chan``, atomic against its other writers;
    returns the body's byte count.

    The channel lock exists only to keep frames whole on the stream —
    and, for a ``bulk`` frame, to keep the lane's byte order equal to
    the header order on the socket.  Callers are rank threads, the
    writer thread, and a pump with a send small enough not to stall
    (:meth:`WireTransport.send`).
    """
    # single-writer discipline: the lock is what keeps the frame whole,
    # so every write below blocks under it on purpose
    with chan.lock:
        if type(body) is memoryview and not bulk:      # an eager frame
            sent = chan.sendmsg([header, body])  # repro: allow(blocking-under-lock)
            if sent < len(header) + len(body):
                send_rest(chan, header, body, sent)  # repro: allow(blocking-under-lock)
            return len(body)
        if not bulk:
            send_frame(chan, header, body)  # repro: allow(blocking-under-lock)
            return body_nbytes(body)
        chan.sendall(header)  # repro: allow(blocking-under-lock)
        # fault point: the header is on the stream, the body is not in
        # the lane — a death here leaves the peer's pump in a lane read
        # that only the socket's EOF can end
        faultinject.maybe_fail("shm.ring", chan.tx[0])
        chan.lane_tx.sendall(body)  # repro: allow(blocking-under-lock)
        return body_nbytes(body)


def read_body(chan, flags: int, views) -> None:
    """Fill ``views`` with a frame's body: from the pair's bulk lane if
    the header says so, else from the read buffer, then the socket."""
    if flags & ev.FLAG_BULK:
        chan.lane_rx.read_views(views)
        return
    for i, view in enumerate(views):
        n = min(len(view), chan.rend - chan.rstart)
        view[:n] = chan.rbuf[chan.rstart:chan.rstart + n]
        chan.rstart += n
        if n < len(view):       # the buffer ran out: the rest, from the socket
            views = [view[n:], *views[i + 1:]]
            break
    else:
        return
    if len(views) == 1:
        recv_exact_into(chan, views[0])
    else:
        recv_exact_into_views(chan, views)


class Channel:
    """``rank``'s endpoint of the stream socket it shares with ``peer``.

    The socket's own ``sendall`` / ``sendmsg`` / ``recv_into`` /
    ``recvmsg_into`` are re-exported as attributes, so the framing code
    drives a channel at exactly the cost of driving the socket.  While
    its pump drains it, bytes read and not yet cut into frames are
    ``rbuf[rstart:rend]`` (the pump's read buffer); between drains they
    are ``tail``, less than a header.
    """

    __slots__ = ("sock", "tx", "rx", "lock", "dead", "lane_tx", "lane_rx",
                 "cma_pid", "deferred", "sendall", "sendmsg", "recv_into",
                 "recvmsg_into", "rbuf", "rstart", "rend", "tail")

    def __init__(self, sock: socket.socket, rank: int, peer: int):
        set_nodelay(sock)
        self.sock = sock
        #: directed pair this endpoint writes / reads
        self.tx, self.rx = (rank, peer), (peer, rank)
        #: re-entrant: a writer stalled on lane space holds it between
        #: header and body, and the sanitizer probe it sends from there
        #: is one more frame on this socket
        self.lock = threading.RLock()
        self.dead = threading.Event()
        #: bulk lanes to / from the peer (None: bodies ride the stream)
        self.lane_tx = self.lane_rx = None
        #: the peer's pid iff this endpoint's probe read the peer's
        #: memory (:func:`repro.transport.cma.probe`), else None.  The
        #: pair's whole single-copy capability: this side offers a get
        #: with what it sends and takes the ones it is offered iff set
        self.cma_pid: int | None = None
        #: pump-originated sends queued on the writer, not yet written
        self.deferred = 0
        self.sendall, self.sendmsg = sock.sendall, sock.sendmsg
        self.recv_into, self.recvmsg_into = sock.recv_into, sock.recvmsg_into
        self.rbuf: memoryview | None = None
        self.rstart = self.rend = 0
        self.tail = b""

    def attach_lanes(self, lane_tx, lane_rx) -> None:
        """Give this pair its bulk lanes.  They share the channel's
        ``dead`` flag (a ring has no EOF of its own), and a stalled read
        of ``lane_rx`` asks the socket whether the peer is gone."""
        self.lane_tx, self.lane_rx = lane_tx, lane_rx
        for lane in self._lanes():
            lane.dead = self.dead
        if lane_rx is not None:
            lane_rx.peer_gone = self.peer_gone

    def _lanes(self):
        return [ln for ln in (self.lane_tx, self.lane_rx) if ln is not None]

    @property
    def bulk_path(self) -> str:
        """How a payload at or above the eager limit leaves this
        endpoint: ``cma`` (the peer reads it in place), ``ring`` (through
        the shared-memory lane) or ``socket``."""
        if self.cma_pid is not None:
            return "cma"
        return "ring" if self.lane_tx is not None else "socket"

    def peer_gone(self) -> bool:
        """Has the peer closed the stream with nothing left to read?
        (A non-consuming, non-blocking peek.)"""
        try:
            return not self.sock.recv(1, socket.MSG_PEEK | socket.MSG_DONTWAIT)
        except BlockingIOError:
            return False
        except OSError:
            return True

    def bind(self, closing, stats, sanitizer=None) -> None:
        """Attach the owning transport's teardown flag, counters and
        sanitizer to the lane waits; a socket wait needs none of them
        (the kernel ends it)."""
        for lane in self._lanes():
            lane.bind(closing, stats, sanitizer)

    def shutdown(self) -> None:
        """Wake every blocked reader of this socket, here and remote."""
        try:
            self.sock.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass

    def close(self) -> None:
        try:
            self.sock.close()
        except OSError:
            pass
        for lane in self._lanes():
            lane.close()


# -- rendezvous bookkeeping ---------------------------------------------------

class _RendezvousState:
    """Per-local-rank rendezvous tables (sender and receiver side)."""

    __slots__ = ("lock", "out", "sinks", "t0")

    def __init__(self):
        self.lock = threading.Lock()
        self.out: dict[int, Envelope] = {}     # seq -> parked send
        #: (src, seq) -> (RTS envelope, posted receive, its byte views or
        #: None): a matched receive waiting for its payload frame
        self.sinks: dict[tuple, tuple] = {}
        self.t0: dict[int, float] = {}         # seq -> RTS time (tracing)


class _Role(threading.local):
    pump = False        # set True in a pump thread; the default elsewhere


class WireTransport(Transport):
    """The eager/rendezvous wire protocol over a table of channels.

    Hosts ``local_ranks`` (every rank of an in-process job, one rank of
    a worker process).  ``channels`` lists every channel endpoint this
    process holds, one per directed pair.  One pump per local rank
    drains the channels that read into it; rank threads and the one
    writer thread do all the writing.
    """

    mode = "DM"

    def __init__(self, nprocs: int, local_ranks, channels):
        super().__init__(nprocs)
        self.local_ranks = tuple(sorted({int(r) for r in local_ranks}))
        self._chans = list(channels)
        self._table = {chan.tx: chan for chan in self._chans
                       if chan.tx[0] in self.local_ranks}
        self._rndv = {r: _RendezvousState() for r in self.local_ranks}
        self._writeq: queue.SimpleQueue = queue.SimpleQueue()
        self._pumps: list[threading.Thread] = []
        self._writer: threading.Thread | None = None
        self._closing = threading.Event()
        self._started = False
        #: ``.pump`` is True in this transport's pump threads only
        self._role = _Role()
        self._deferred_lock = threading.Lock()
        #: frame/byte counters for benchmarks and the zero-copy tests —
        #: a live :class:`~repro.obs.metrics.CounterGroup` registered in
        #: the process metrics registry
        self.wire_stats = CounterGroup("wire", (
            "eager_frames", "eager_bytes",
            "eager_direct_frames", "eager_direct_bytes",
            "eager_direct_miss",
            "rts_frames", "cts_frames",
            "rndv_direct_frames", "rndv_direct_bytes",
            "rndv_staged_frames", "rndv_staged_bytes",
            "rndv_get_frames", "rndv_get_bytes",
            "tx_frames", "tx_bytes", "stall_sleeps",
        ))
        self._count = self.wire_stats.inc
        for chan in self._chans:
            chan.bind(self._closing, self.wire_stats)

    def set_sanitizer(self, san) -> None:
        """Arm lane waits with the sanitizer's wait-for bookkeeping."""
        for chan in self._chans:
            chan.bind(self._closing, self.wire_stats, san)

    # -- lifecycle ---------------------------------------------------------
    def start(self) -> None:
        if self._started:
            return
        self._started = True
        for rank in self.local_ranks:
            chans = [ch for ch in self._chans if ch.rx[1] == rank]
            if not chans:
                # a 1-rank job: nothing to drain, and close() would wait
                # out an empty poll's timeout
                continue
            self._pumps.append(threading.Thread(
                target=self._pump, args=(rank, chans),
                name=f"repro-pump-{rank}", daemon=True))
        self._writer = threading.Thread(target=self._writer_loop,
                                        name="repro-wire-writer", daemon=True)
        for t in (*self._pumps, self._writer):
            t.start()
        if TRACE.enabled:
            # the effective configuration, so a traced number can be
            # reproduced: where each local rank's large payloads go
            for rank in self.local_ranks:
                TRACE.instant(rank, "wire.config", "wire",
                              {"bulk": self.bulk_paths(rank),
                               **config.effective(),
                               "REPRO_EAGER_LIMIT": _eager_limit})

    def close(self) -> None:
        if self._closing.is_set():
            return
        self._closing.set()
        self._writeq.put(None)
        if self._writer is not None:
            self._writer.join(timeout=2.0)
        for chan in self._chans:
            chan.shutdown()
        for t in self._pumps:
            t.join(timeout=2.0)
        # only now: a lane's memory may not go while a pump reads it
        for chan in self._chans:
            chan.close()

    # -- send side ---------------------------------------------------------
    def send(self, env: Envelope) -> None:
        chan = self._table.get((env.src, env.dst))
        if chan is None:
            chan = self._off_table(env)
            if chan is None:
                return
        if self._role.pump and (
                chan.deferred or env.payload_nbytes() > PUMP_INLINE_MAX):
            # a pump must not stall in a channel write: see the module
            # docstring's writer-thread rule
            with self._deferred_lock:
                chan.deferred += 1
            self._writeq.put((self._deferred_send, env, chan))
            return
        self._wire_send(env, chan)

    def _deferred_send(self, env: Envelope, chan) -> None:
        try:
            self._wire_send(env, chan)
        finally:
            with self._deferred_lock:
                chan.deferred -= 1

    def send_oob(self, env: Envelope) -> None:
        """Control delivery for waits blocked *inside* a channel (a
        sanitizer probe from a writer stalled on lane space): straight
        into an in-process peer's mailbox, as one more frame on the
        pair's socket — whose lock the stalled writer already holds —
        to anyone else."""
        if env.dst in self._rndv:
            self._deliver_local(env.dst, env)
        else:
            self.send(env)

    def _off_table(self, env: Envelope):
        """Route an envelope whose (src, dst) writes no channel here.

        Self-sends loop back like real MPI's.  Control relayed on behalf
        of a rank hosted elsewhere — the origin of an abort, the subject
        of a peerfail — is delivered to local ranks directly and rides
        this process's first local rank's channel to everyone else.
        Returns the channel to use, or None once delivered.
        """
        src, dst = env.src, env.dst
        relayed = src not in self._rndv
        if dst in self._rndv and (relayed or src == dst):
            self._deliver_local(dst, env)
            return None
        via = self.local_ranks[0] if relayed else src
        chan = self._table.get((via, dst))
        if chan is None:
            raise RuntimeError(f"no wire connection {src}->{dst}")
        return chan

    def _deliver_local(self, rank: int, env: Envelope) -> None:
        if env.kind == ev.KIND_PEERFAIL:
            self._peer_down(env.src)
        deliver = self._deliver[rank]
        if deliver is None:
            raise RuntimeError(f"rank {rank} has no mailbox attached")
        deliver(env)

    def _peer_down(self, peer: int) -> None:
        """``peer`` was declared failed: wake every lane wait touching
        it (a shared ring has no EOF to notice)."""
        for chan in self._chans:
            if peer in chan.tx:
                chan.dead.set()

    def _wire_send(self, env: Envelope, chan) -> None:
        """Ship one envelope src->dst (rank thread; never blocks on CTS)."""
        bulk = False
        payload = env.payload
        if not env.is_object and payload is not None \
                and payload.nbytes >= _eager_limit \
                and env.kind == ev.KIND_DATA \
                and env.mode in (ev.MODE_STANDARD, ev.MODE_SYNCHRONOUS):
            # rendezvous.  A capable pair has one policy: announce, and
            # let the peer read in place.  Otherwise a frame that fits
            # the lane whole stays eager, body in the lane; anything else
            # (always, on a plain socket) handshakes
            lane = chan.lane_tx
            bulk = chan.cma_pid is None and lane is not None and \
                env.payload.nbytes + ev.HEADER_SIZE <= lane.capacity
            if not bulk:
                self._send_rts(env, chan)
                return
        header, body = ev.encode(env, bulk)
        nbytes = framed_send(chan, header, body, bulk)
        counts = self.wire_stats.shard.counts
        counts["eager_frames"] += 1
        counts["eager_bytes"] += nbytes
        counts["tx_frames"] += 1
        counts["tx_bytes"] += len(header) + nbytes
        if TRACE.enabled:
            TRACE.instant(env.src, "wire.eager", "wire",
                          {"dst": env.dst, "bytes": nbytes})
        if env.on_flushed is not None:
            # borderline prediction (communicator expected rendezvous,
            # e.g. after the threshold moved): the bytes are out, so the
            # user buffer is reusable — complete the send now
            env.on_flushed()

    def _send_rts(self, env: Envelope, chan) -> None:
        """Park ``env``'s payload and announce it with an RTS: header
        only, or — to a peer this side can read — with the payload's
        address table as the cookie of a single-copy get.

        The parked envelope is what keeps the user buffer alive until
        the CTS (stream it) or the DONE (the peer has read it): nothing
        else may drop it.
        """
        table = payload_table(env) if chan.cma_pid is not None else None
        st = self._rndv[env.src]
        with st.lock:
            st.out[env.seq] = env
            if TRACE.enabled:
                st.t0[env.seq] = TRACE.now()
        header = ev.encode_rts(env, table)
        cookie = b"" if table is None else memoryview(table).cast("B")
        framed_send(chan, header, cookie)
        # fault point: the RTS is on the wire, the payload is parked — a
        # death here leaves the receiver matched to a sender that will
        # never answer its CTS (or whose memory its get cannot read)
        faultinject.maybe_fail("rendezvous.cts", env.src)
        self._count(rts_frames=1, tx_frames=1,
                    tx_bytes=len(header) + len(cookie))
        if TRACE.enabled:
            TRACE.instant(env.src, "wire.rts", "wire",
                          {"dst": env.dst, "seq": env.seq,
                           "bytes": env.payload.nbytes})

    def _enqueue_frame(self, src: int, dst: int, header: bytes) -> None:
        """Hand a control frame to the writer (what may run in a pump
        thread uses this instead of writing: a pump blocked on a channel
        lock held by a writer mid-stream stops draining and can
        deadlock)."""
        self._writeq.put((self._write_control, src, dst, header))

    def _writer_loop(self) -> None:
        """Run the queued jobs — ``(method, *args)``: a control frame, a
        CTS'd rendezvous payload, a pump-originated send — in order."""
        while True:
            job = self._writeq.get()
            if job is None:
                return
            try:
                job[0](*job[1:])
            except (OSError, LookupError):
                if self._closing.is_set():
                    return
                # peer death surfaces via the pump

    def _write_control(self, src: int, dst: int, header: bytes) -> None:
        framed_send(self._table[src, dst], header)
        self._count(tx_frames=1, tx_bytes=len(header))

    def _stream_payload(self, env: Envelope) -> None:
        """The receiver's CTS arrived: stream the parked payload."""
        env.kind = ev.KIND_RNDV_DATA
        chan = self._table[env.src, env.dst]
        bulk = chan.lane_tx is not None
        header, body = ev.encode(env, bulk)
        t_flush = TRACE.now() if TRACE.enabled else 0.0
        nbytes = framed_send(chan, header, body, bulk)
        self._count(tx_frames=1, tx_bytes=len(header) + nbytes)
        if TRACE.enabled:
            TRACE.span(env.src, "wire.flush", "wire", t_flush,
                       {"dst": env.dst, "bytes": nbytes})
        self._payload_done(env)

    def _payload_done(self, env: Envelope) -> None:
        """A parked rendezvous payload is out of this rank's hands —
        streamed by the writer, or read in place by the peer (DONE):
        close the trace span anchored at its RTS and complete the send.
        """
        if TRACE.enabled:
            st = self._rndv[env.src]
            with st.lock:
                t0 = st.t0.pop(env.seq, None)
            if t0 is not None:
                TRACE.span(env.src, "wire.rndv", "wire", t0,
                           {"dst": env.dst, "seq": env.seq,
                            "bytes": env.payload.nbytes})
        if env.on_flushed is not None:
            # zero-copy send: the user buffer is reusable now
            env.on_flushed()
        if env.mode == ev.MODE_SYNCHRONOUS:
            # the CTS / DONE proved the match; complete the local Ssend
            deliver = self._deliver[env.src]
            if deliver is not None:
                deliver(Envelope(kind=ev.KIND_ACK, src=env.dst,
                                 dst=env.src, context=env.context,
                                 tag=env.tag, seq=env.seq))

    # -- receive side ------------------------------------------------------
    def _pump(self, rank: int, chans) -> None:
        """Drain ``chans`` — every socket that reads into ``rank``.

        A channel that fails outside teardown is marked dead and
        dropped, and the failure — the peer's EOF, seen on the socket or
        by a lane read that peeked it — is classified as a
        ``KIND_PEERFAIL`` delivery: the failure plane marks the rank
        dead and fails exactly the operations that depended on it (fatal
        under ``ERRORS_ARE_FATAL``, survivable under ``ERRORS_RETURN``).
        Anything else that escapes a delivery ends this pump, and with
        it every receive the rank could still post: the job is aborted
        with that exception as the cause, this rank first.
        """
        self._role.pump = True
        pool = RecvPool()
        rbuf = memoryview(bytearray(READ_BUFFER))
        poller = select.poll()
        by_fd = {}
        for chan in chans:
            chan.rbuf = rbuf
            by_fd[chan.sock.fileno()] = chan
            poller.register(chan.sock.fileno(), select.POLLIN)
        try:
            while not self._closing.is_set():
                for fd, _ in poller.poll(200):
                    chan = by_fd[fd]
                    try:
                        # what this channel's last drain left over first
                        chan.rend = len(chan.tail)
                        rbuf[:chan.rend] = chan.tail
                        chan.rstart = 0
                        fill(chan)
                        while chan.rend - chan.rstart >= ev.HEADER_SIZE:
                            self._read_frame(rank, chan, pool)
                        chan.tail = bytes(rbuf[chan.rstart:chan.rend])
                    except (ConnectionError, OSError):
                        if self._closing.is_set():
                            return
                        chan.dead.set()
                        poller.unregister(fd)
                        del by_fd[fd]
                        if self._deliver[rank] is not None:
                            peer = chan.rx[0]
                            self._peer_lost(rank, peer,
                                            f"rank {peer} connection lost")
                        if not by_fd:
                            # nothing is left to read: close() must not
                            # wait out an empty poll's timeout
                            return
        except Exception as exc:  # noqa: BLE001 - the thread's boundary
            abort = ev.encode_abort_env(rank, 1, exc)
            abort.dst = rank
            self._deliver_local(rank, abort)
            try:
                # ranks in other processes learn of it from the wire
                self.broadcast_control(abort)
            except Exception:  # noqa: BLE001 - best effort while dying
                pass

    def _peer_lost(self, rank: int, peer: int, why: str) -> None:
        """This transport classified ``peer`` as dead: tell ``rank``'s
        failure plane (a locally delivered ``KIND_PEERFAIL``)."""
        env = ev.encode_peerfail_env(peer, ConnectionError(why))
        env.dst = rank
        self._deliver_local(rank, env)

    def _read_frame(self, rank: int, chan, pool: RecvPool) -> None:
        """Cut one frame (its header is buffered) off ``chan``; dispatch."""
        fields = ev.HEADER.unpack_from(chan.rbuf, chan.rstart)
        chan.rstart += ev.HEADER_SIZE
        (kind, src, dst, context, tag, mode, seq, nelems, flags, code,
         nbytes) = fields
        if kind == ev.KIND_CTS:
            done = bool(flags & ev.FLAG_CMA)
            self._count(cts_frames=1)
            if TRACE.enabled:
                TRACE.instant(rank, "wire.cts", "wire",
                              {"seq": seq, "done": done})
            self._handle_cts(rank, seq, done)
            return
        if kind == ev.KIND_RNDV_DATA:
            st = self._rndv[rank]
            with st.lock:
                sink = st.sinks.pop((src, seq), None)
            if sink is None:  # pragma: no cover - a CTS precedes the frame
                read_body(chan, flags, [pool.body(nbytes)])
                return
            self._land_rndv(rank, *sink,
                            lambda into: read_body(chan, flags, into),
                            "lane" if flags & ev.FLAG_BULK else "stream")
            return
        if kind == ev.KIND_DATA and nbytes >= DIRECT_EAGER_MIN \
                and not (flags & ev.FLAG_OBJECT):
            claim = self._direct_claim[rank]
            if claim is not None:
                peek = Envelope(kind, src, dst, context, tag, mode, seq,
                                None, nelems)
                peek.rndv_dtype = ev.DTYPE_CODES[code.decode()]
                peek.rndv_nbytes = nbytes
                got = claim(peek)
                if got is not None:
                    # eager direct landing: the receive was posted with
                    # a directly-landable window (contiguous, or a
                    # derived layout's run views), so the body streams
                    # straight from the stream (or the lane) into the
                    # user buffer — zero staging copies
                    posted, views = got
                    try:
                        read_body(chan, flags, views)
                    except OSError:
                        # claimed out of the queues the failure plane
                        # walks: ours to fail (see claim_direct_recv)
                        if not self._closing.is_set():
                            self._peer_lost(rank, src,
                                            f"rank {src} lost mid-message")
                            posted.req.fail_if_affected()
                        raise
                    self._count(eager_direct_frames=1,
                                eager_direct_bytes=nbytes)
                    if TRACE.enabled:
                        TRACE.instant(rank, "wire.eager_direct", "wire",
                                      {"hit": True, "src": src,
                                       "bytes": nbytes})
                    if mode == ev.MODE_SYNCHRONOUS:
                        self._send_ack(peek)
                    posted.req.complete(source_world=src, tag=tag,
                                        count_elements=nelems)
                    return
                # the peek ran but no posted receive could take the
                # bytes directly — the message is staged
                self._count(eager_direct_miss=1)
                if TRACE.enabled:
                    TRACE.instant(rank, "wire.eager_direct", "wire",
                                  {"hit": False, "src": src,
                                   "bytes": nbytes})
        if not nbytes:
            body = b""
        elif flags & ev.FLAG_BULK or 2 * nbytes > len(chan.rbuf):
            body = pool.body(nbytes)
            read_body(chan, flags, [body])
        else:       # decoded where it lies (borrowed)
            if chan.rstart + nbytes > len(chan.rbuf):
                compact(chan)
            while chan.rend - chan.rstart < nbytes:
                fill(chan)
            chan.rstart += nbytes
            body = chan.rbuf[chan.rstart - nbytes:chan.rstart]
        env = ev.decode(fields, body)
        env.borrowed = nbytes > 0
        if kind == ev.KIND_RTS:
            env.rndv_accept = lambda posted: self._accept_rts(rank, env,
                                                              posted)
        elif mode == ev.MODE_SYNCHRONOUS and kind == ev.KIND_DATA:
            env.transport_notify = self._send_ack
        elif kind == ev.KIND_PEERFAIL:
            self._peer_down(src)
        deliver = self._deliver[rank]
        if deliver is not None:
            deliver(env)

    def _handle_cts(self, rank: int, seq: int, done: bool) -> None:
        """Receiver matched our RTS.  A plain CTS asks for the payload:
        hand it to the writer.  ``done`` (the CTS carried ``FLAG_CMA``)
        says the receiver already read it out of our memory."""
        st = self._rndv[rank]
        with st.lock:
            env = st.out.pop(seq, None)
        if env is None:
            return
        if done:
            self._payload_done(env)
        else:
            self._writeq.put((self._stream_payload, env))

    def _send_ack(self, env: Envelope) -> None:
        """Matched a synchronous-mode message: ACK back to the sender.

        Fires from ``notify_matched`` — possibly in a pump thread
        (arrival match) — so the frame goes through the writer queue.
        """
        ack = ev.HEADER.pack(ev.KIND_ACK, env.dst, env.src, env.context,
                             env.tag, 0, env.seq, 0, 0, b"--", 0)
        self._enqueue_frame(env.dst, env.src, ack)

    def _accept_rts(self, rank: int, env: Envelope, posted) -> None:
        """Mailbox matched an RTS to ``posted``: read the payload in
        place if the sender offered that and this side can, else
        register the sink and CTS.

        Runs in whichever thread performed the match (pump on arrival
        match, the receiving rank on post match) and outside the mailbox
        lock — the get is a multi-hundred-microsecond copy.  On the CTS
        path registration strictly precedes the data frame because the
        sender only streams after this CTS.
        """
        views = None
        if posted.recv_views is not None:
            views = posted.recv_views(env)
        chan = self._table.get((rank, env.src))
        if env.rndv_cookie is not None and chan is not None \
                and chan.cma_pid is not None \
                and self._get(rank, chan, env, posted, views):
            return
        st = self._rndv[rank]
        with st.lock:
            st.sinks[(env.src, env.seq)] = (env, posted, views)
        cts = ev.HEADER.pack(ev.KIND_CTS, rank, env.src, env.context,
                             env.tag, env.mode, env.seq, 0, 0, b"--", 0)
        # via the writer, never inline: this may run in the pump (arrival
        # match), and pumps must not block on channel locks
        self._enqueue_frame(rank, env.src, cts)

    def _get(self, rank: int, chan, env: Envelope, posted, views) -> bool:
        """Single-copy landing of the payload ``env`` (an RTS with a
        cookie) announces: ``process_vm_readv`` from the sender's
        memory, then DONE.  Returns False iff the kernel refused the
        read, so the caller falls back to an ordinary CTS.

        A sender that died after its RTS (``ESRCH``; ``EFAULT`` while it
        is being torn down) is a peer loss, not an error of this call:
        it goes to the failure plane as the pump's EOF would, and the
        matched request completes with ``ERR_PROC_FAILED`` through the
        failure scope it subscribed when the mailbox handed it over.
        """
        src = env.src

        def fetch(into):
            cma.read(chan.cma_pid, env.rndv_cookie, cma.address_table(into))
            # fault point: the payload has been read, the sender has not
            # been told — a death here leaves it parked on a receiver
            # that will never answer, as a lost CTS would
            faultinject.maybe_fail("rendezvous.done", rank)
            done = ev.HEADER.pack(ev.KIND_CTS, rank, src, env.context,
                                  env.tag, env.mode, env.seq, 0,
                                  ev.FLAG_CMA, b"--", 0)
            # via the writer, never inline (see the CTS above)
            self._enqueue_frame(rank, src, done)
            self._count(rndv_get_frames=1, rndv_get_bytes=env.rndv_nbytes)

        try:
            self._land_rndv(rank, env, posted, views, fetch, "cma")
        except OSError as exc:      # the read's: nothing has landed yet
            if exc.errno not in (errno.ESRCH, errno.EFAULT):
                # not permitted after all (the probe raced a policy
                # change): this endpoint stops offering and taking gets
                chan.cma_pid = None
                return False
            self._peer_lost(rank, src, f"rank {src} lost before its "
                            f"rendezvous payload could be read: {exc}")
        return True

    def _land_rndv(self, rank: int, env: Envelope, posted, views, fetch,
                   via: str) -> None:
        """Land the body the RTS ``env`` announced on the receive it
        matched: ``fetch`` fills byte views — the posted receive's own
        when they take the bytes as they are (every layout run in one
        scattering read, zero staging copies), else a staging array that
        ``posted.land`` then checks (dtype mismatch, truncation,
        wire-unfriendly layout).  The only thing that differs between a
        payload frame and a single-copy get is ``fetch``.
        """
        src, nbytes = env.src, env.rndv_nbytes
        t0 = TRACE.now() if TRACE.enabled else 0.0
        direct = views is not None and body_nbytes(views) == nbytes
        if direct:
            fetch(views)
            self._count(rndv_direct_frames=1, rndv_direct_bytes=nbytes)
            outcome = {"count_elements": env.nelems}
        else:
            stage = np.empty(nbytes, dtype=np.uint8)
            fetch([memoryview(stage)])
            count, error, message = posted.land(Envelope(
                src=src, dst=rank, context=env.context, tag=env.tag,
                mode=env.mode, seq=env.seq,
                payload=stage.view(env.rndv_dtype), nelems=env.nelems))
            self._count(rndv_staged_frames=1, rndv_staged_bytes=nbytes)
            outcome = {"count_elements": count, "error": error,
                       "error_message": message}
        if TRACE.enabled:
            TRACE.span(rank, "wire.rndv_land", "wire", t0,
                       {"src": src, "bytes": nbytes, "direct": direct,
                        "via": via})
        posted.req.complete(source_world=src, tag=env.tag, **outcome)

    def bulk_paths(self, rank: int | None = None) -> dict[str, str]:
        """``"src->dst"`` -> ``cma`` | ``ring`` | ``socket`` for every
        directed pair written here (or only ``rank``'s): where a payload
        at or above the eager limit goes (the effective configuration;
        nothing sets it, the bootstrap probes found it)."""
        return {f"{src}->{dst}": chan.bulk_path
                for (src, dst), chan in sorted(self._table.items())
                if rank is None or src == rank}

    def describe(self) -> str:
        paths = ", ".join(f"{pair} {path}"
                          for pair, path in self.bulk_paths().items())
        return (f"WireTransport(nprocs={self.nprocs}, "
                f"local={self.local_ranks}, channels={len(self._chans)}, "
                f"bulk=[{paths}])")
