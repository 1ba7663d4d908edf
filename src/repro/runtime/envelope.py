"""In-flight message records and the wire encoding shared by transports.

An :class:`Envelope` is what travels between ranks: matching keys
(source, destination, context id, tag), a communication-mode flag, and a
*dense* payload — either a contiguous NumPy array of base elements (derived
datatypes are gathered/scattered at the endpoints) or a serialized-object
blob for ``MPI.OBJECT`` traffic.
"""

from __future__ import annotations

import pickle
import struct

import numpy as np

# --- message kinds -----------------------------------------------------------
KIND_DATA = 0
KIND_ACK = 1        # synchronous-mode acknowledgement
KIND_ABORT = 2      # job teardown broadcast
KIND_RTS = 3        # rendezvous request-to-send (header only, no payload)
KIND_CTS = 4        # rendezvous clear-to-send (receiver matched a recv)
KIND_RNDV_DATA = 5  # rendezvous payload frame, routed by (src, seq)
KIND_SANITIZE = 6   # sanitizer deadlock-probe (REPRO_SANITIZE=1 only)
KIND_REVOKE = 7     # ULFM communicator-revoke token (reliable broadcast)
KIND_PEERFAIL = 8   # peer-loss notification (transport/launcher classified)

# --- communication modes (MPI 1.1 §3.4) --------------------------------------
MODE_STANDARD = 0
MODE_BUFFERED = 1
MODE_SYNCHRONOUS = 2
MODE_READY = 3

MODE_NAMES = {MODE_STANDARD: "standard", MODE_BUFFERED: "buffered",
              MODE_SYNCHRONOUS: "synchronous", MODE_READY: "ready"}

# --- payload dtype codes for the socket wire format ---------------------------
DTYPE_CODES = {
    "i1": np.dtype(np.int8), "u1": np.dtype(np.uint8),
    "u2": np.dtype(np.uint16), "i2": np.dtype(np.int16),
    "b1": np.dtype(np.bool_), "i4": np.dtype(np.int32),
    "i8": np.dtype(np.int64), "f4": np.dtype(np.float32),
    "f8": np.dtype(np.float64),
}
_CODE_BY_DTYPE = {v: k for k, v in DTYPE_CODES.items()}
OBJECT_CODE = "ob"


def dtype_code_of(payload) -> str:
    if isinstance(payload, (bytes, bytearray, memoryview)):
        return OBJECT_CODE
    return _CODE_BY_DTYPE[payload.dtype]


class IOVecPayload:
    """A zero-copy multi-run payload: byte views of the user buffer.

    Noncontiguous (derived-datatype) wire sends carry one of these
    instead of a gathered dense array: ``views`` are the layout IR's
    per-run byte views, in serialization order, and the transport ships
    them with a single vectored ``sendmsg([header, run0, run1, ...])``.
    Like any borrowed-view payload, the views are valid only until the
    send's ``on_flushed`` fires — which is exactly when the request
    completes and the user may touch the buffer again.

    Only sender-side wire paths ever see one (loopback and SM transports
    keep the dense gather copy), so the receive/landing machinery never
    has to decode it: on the wire it is indistinguishable from a dense
    payload of ``dtype`` elements.
    """

    __slots__ = ("views", "dtype", "nbytes")

    def __init__(self, views, dtype, nbytes=None):
        self.views = views
        self.dtype = dtype
        self.nbytes = sum(len(v) for v in views) if nbytes is None \
            else nbytes


class Envelope:
    """One message in flight (or one control record)."""

    __slots__ = ("kind", "src", "dst", "context", "tag", "mode", "seq",
                 "payload", "nelems", "is_object", "on_matched",
                 "transport_notify", "borrowed", "rndv_accept",
                 "rndv_nbytes", "rndv_dtype", "rndv_cookie", "on_flushed")

    def __init__(self, kind=KIND_DATA, src=0, dst=0, context=0, tag=0,
                 mode=MODE_STANDARD, seq=0, payload=None, nelems=0,
                 is_object=False):
        self.kind = kind
        self.src = src
        self.dst = dst
        self.context = context
        self.tag = tag
        self.mode = mode
        self.seq = seq
        self.payload = payload
        self.nelems = nelems
        self.is_object = is_object
        #: in-process path: sender-side callback fired when matched
        #: (completes a synchronous-mode send request directly)
        self.on_matched = None
        #: wire path: transport hook that routes a matched ACK back
        self.transport_notify = None
        #: payload views a pooled receive buffer that the transport will
        #: reuse after delivery returns; anyone keeping the envelope past
        #: that point must call :meth:`claim` first
        self.borrowed = False
        #: rendezvous hook installed by wire transports on KIND_RTS
        #: envelopes; the mailbox calls it with the matched PostedRecv
        #: instead of landing (there is no payload to land yet)
        self.rndv_accept = None
        #: announced payload size / dtype of a KIND_RTS envelope
        self.rndv_nbytes = 0
        self.rndv_dtype = None
        #: a ``FLAG_CMA`` RTS's body: the ``[address, length]`` table of
        #: the payload in the sender's address space (an owned array),
        #: or None when the sender offered no single-copy get
        self.rndv_cookie = None
        #: wire path: fired once the payload bytes have left for the
        #: kernel — completes zero-copy sends whose payload is a *view*
        #: of the user buffer (reusable only after this point)
        self.on_flushed = None

    def notify_matched(self) -> None:
        """Signal the sender that a synchronous send has been matched."""
        if self.on_matched is not None:
            self.on_matched()
        if self.transport_notify is not None:
            self.transport_notify(self)

    def payload_nbytes(self) -> int:
        if self.payload is None:
            return self.rndv_nbytes if self.kind == KIND_RTS else 0
        if isinstance(self.payload, (bytes, bytearray, memoryview)):
            return len(self.payload)
        return self.payload.nbytes    # ndarray and IOVecPayload alike

    def claim(self) -> "Envelope":
        """Take ownership of a borrowed payload (copy it out of the pool).

        Wire transports receive into pooled buffers that are recycled as
        soon as :meth:`Mailbox.deliver` returns.  Any path that keeps the
        envelope alive past that point — the unexpected queue, a deferred
        land callback — must claim it first.  No-op for owned payloads.
        """
        if self.borrowed:
            if self.payload is not None:
                if self.is_object:
                    self.payload = bytes(self.payload)
                else:
                    self.payload = np.array(self.payload)
            self.borrowed = False
        return self

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"Envelope(kind={self.kind}, {self.src}->{self.dst}, "
                f"ctx={self.context}, tag={self.tag}, "
                f"mode={MODE_NAMES.get(self.mode)}, n={self.nelems})")


# --- socket wire format --------------------------------------------------------
#: kind, src, dst, context, tag, mode, seq, nelems, flags, dtype code, nbytes
HEADER = struct.Struct("!BiiiiBQQB2sQ")
FLAG_OBJECT = 1
#: the body is not on the frame stream: it is in the pair's bulk lane
FLAG_BULK = 2
#: single-copy get (same-host pairs).  On a KIND_RTS: the body is the
#: sender's ``[address, length]`` table, and the receiver may read the
#: payload out of the sender's memory instead of asking for it.  On a
#: KIND_CTS: "done" — the receiver did, nothing is left to send
FLAG_CMA = 4

HEADER_SIZE = HEADER.size


def encode(env: Envelope, bulk: bool = False) -> tuple[bytes, object]:
    """Encode an envelope into (header, body) for a byte stream.

    The body is a *view* of the envelope's payload (zero-copy): dense
    NumPy payloads are exposed through the buffer protocol byte-for-byte
    rather than copied with ``tobytes()``, and an :class:`IOVecPayload`
    passes its run views through as a **list**.  Callers hand both
    pieces to a vectored write (``socket.sendmsg``); the views are only
    valid while the payload is alive, which the envelope guarantees.
    ``bulk`` marks the header ``FLAG_BULK``: the caller puts the body in
    the pair's bulk lane instead of behind the header.
    """
    nbytes = None
    if env.payload is None:
        body = memoryview(b"")
        code = b"--"
    elif env.is_object:
        body = memoryview(env.payload) if not isinstance(env.payload, memoryview) \
            else env.payload
        code = OBJECT_CODE.encode()
    elif type(env.payload) is IOVecPayload:
        body = env.payload.views
        nbytes = env.payload.nbytes
        code = dtype_code_of(env.payload).encode()
    else:
        payload = env.payload
        code = _CODE_BY_DTYPE[payload.dtype].encode()
        if not payload.flags.c_contiguous:
            payload = np.ascontiguousarray(payload)
        body = memoryview(payload).cast("B")
    flags = (FLAG_OBJECT if env.is_object else 0) | (FLAG_BULK if bulk else 0)
    header = HEADER.pack(env.kind, env.src, env.dst, env.context, env.tag,
                         env.mode, env.seq, env.nelems, flags, code,
                         len(body) if nbytes is None else nbytes)
    return header, body


def encode_rts(env: Envelope, table=None) -> bytes:
    """Request-to-send frame header announcing ``env``'s payload.

    The dtype code and element count ride in the header itself, so the
    receiver can size probes and the landing buffer without any payload
    bytes; the payload ships later in a KIND_RNDV_DATA frame.  With
    ``table`` — the payload's ``[address, length]`` rows in this
    process, a ``uint64`` array — the header carries ``FLAG_CMA`` and
    announces the table's bytes as the frame body (the caller sends
    them): an offer to read the payload in place.
    """
    code = dtype_code_of(env.payload).encode()
    return HEADER.pack(KIND_RTS, env.src, env.dst, env.context, env.tag,
                       env.mode, env.seq, env.nelems,
                       0 if table is None else FLAG_CMA, code,
                       0 if table is None else table.nbytes)


# --- exception serialization ----------------------------------------------------
#
# Exceptions crossing a process boundary lose their __cause__ chain under
# plain pickling (BaseException.__reduce__ keeps args + __dict__ only),
# and an exception whose constructor signature doesn't match its args
# blows up at *load* time on the far side.  So: serialize the cause chain
# as a list, round-trip-check each element locally (falling back to a
# summary), and relink the chain on load.

_MAX_CHAIN = 8


def dump_exception_chain(exc: BaseException) -> bytes:
    """Pickle ``exc`` and its ``__cause__`` chain; never raises."""
    chain, seen = [], set()
    node: BaseException | None = exc
    while node is not None and id(node) not in seen \
            and len(chain) < _MAX_CHAIN:
        seen.add(id(node))
        chain.append(node)
        node = node.__cause__
    blobs = []
    for node in chain:
        try:
            blob = pickle.dumps(node, protocol=4)
            pickle.loads(blob)  # constructor-mismatch check, locally
        except Exception:
            blob = pickle.dumps(
                RuntimeError(f"{type(node).__name__}: {node}"), protocol=4)
        blobs.append(blob)
    return pickle.dumps(blobs, protocol=4)


def load_exception_chain(blob: bytes) -> BaseException | None:
    """Inverse of :func:`dump_exception_chain`; never raises."""
    try:
        nodes = [pickle.loads(b) for b in pickle.loads(bytes(blob))]
    except Exception:
        return None
    nodes = [n for n in nodes if isinstance(n, BaseException)]
    if not nodes:
        return None
    for parent, child in zip(nodes, nodes[1:]):
        parent.__cause__ = child
    return nodes[0]


# --- abort control envelopes ---------------------------------------------------
#
# A job abort must survive process isolation: receivers cannot rely on a
# shared in-memory flag, so the envelope itself carries everything needed
# to reconstruct the AbortException — errorcode in the (signed) ``tag``
# field, origin rank in ``src`` (-1 = not a rank, e.g. a launcher
# timeout), and the root-cause exception chain pickled into the payload.

def encode_abort_env(origin_rank: int, errorcode: int,
                     cause: BaseException | None = None) -> Envelope:
    """Build the KIND_ABORT control envelope for :meth:`Universe.poison`."""
    payload = b"" if cause is None else dump_exception_chain(cause)
    return Envelope(kind=KIND_ABORT, src=int(origin_rank),
                    tag=int(errorcode), payload=payload, is_object=True)


def decode_abort_env(env: Envelope) \
        -> tuple[int, int, BaseException | None]:
    """(origin_rank, errorcode, cause) from a KIND_ABORT envelope."""
    cause = None
    payload = env.payload
    if payload is not None and len(payload):
        # a corrupt cause must not mask the abort itself
        cause = load_exception_chain(payload)
    return env.src, env.tag, cause


# --- fault-tolerance control envelopes -----------------------------------------
#
# ULFM failure events ride the data plane like aborts do, so process
# isolation never matters: a KIND_PEERFAIL carries the dead rank in
# ``src`` and its classified cause chain in the payload; a KIND_REVOKE
# carries the revoking rank in ``src`` and the revoked communicator's
# context ids (pickled) in the payload, so every receiver can mark the
# same contexts dead without sharing any in-memory state.

def encode_peerfail_env(failed_rank: int,
                        cause: BaseException | None = None) -> Envelope:
    """Build the KIND_PEERFAIL control envelope for a classified peer loss."""
    payload = b"" if cause is None else dump_exception_chain(cause)
    return Envelope(kind=KIND_PEERFAIL, src=int(failed_rank),
                    payload=payload, is_object=True)


def decode_peerfail_env(env: Envelope) -> tuple[int, BaseException | None]:
    """(failed_rank, cause) from a KIND_PEERFAIL envelope."""
    cause = None
    payload = env.payload
    if payload is not None and len(payload):
        cause = load_exception_chain(payload)
    return env.src, cause


def encode_revoke_env(origin_rank: int, contexts) -> Envelope:
    """Build the KIND_REVOKE token naming the revoked context ids."""
    payload = pickle.dumps(tuple(int(c) for c in contexts), protocol=4)
    return Envelope(kind=KIND_REVOKE, src=int(origin_rank),
                    payload=payload, is_object=True)


def decode_revoke_env(env: Envelope) -> tuple[int, tuple]:
    """(origin_rank, context_ids) from a KIND_REVOKE envelope."""
    try:
        contexts = tuple(pickle.loads(bytes(env.payload)))
    except Exception:
        contexts = ()
    return env.src, contexts


def decode(header, body) -> Envelope:
    """Inverse of :func:`encode`.  ``header`` is the packed frame header
    or the tuple :data:`HEADER` unpacked from it (a reader that already
    looked at the fields); ``body`` is any bytes-like buffer.

    This is the single choke point where wire bytes become payload
    arrays.  Landing and reduction code may mutate a received payload in
    place, so the array handed out is guaranteed *writable*: a view when
    the buffer is writable (a channel's read buffer or the receive
    pool), a documented copy when it is not (immutable ``bytes``).
    """
    (kind, src, dst, context, tag, mode, seq, nelems, flags, code,
     nbytes) = header if type(header) is tuple else HEADER.unpack(header)
    is_object = bool(flags & FLAG_OBJECT)
    if kind == KIND_RTS:
        payload = None      # an RTS body is its cookie, never payload
    elif nbytes == 0:
        payload = b"" if is_object else None
    elif is_object:
        payload = body
    else:
        dtype = DTYPE_CODES[code.decode()]
        payload = np.frombuffer(body, dtype=dtype)
        if not payload.flags.writeable:
            # read-only source buffer (e.g. bytes): copy here, once,
            # rather than handing mutation-hostile views downstream
            payload = payload.copy()
    env = Envelope(kind, src, dst, context, tag, mode, seq, payload, nelems,
                   is_object)
    if kind == KIND_RTS and code != b"--":
        env.rndv_dtype = DTYPE_CODES[code.decode()]
        env.rndv_nbytes = nelems * env.rndv_dtype.itemsize
        if flags & FLAG_CMA:
            # copied: the body views a pooled buffer, the RTS may wait
            # in the unexpected queue
            env.rndv_cookie = np.frombuffer(
                body, dtype=np.uint64).reshape(-1, 2).copy()
    return env
