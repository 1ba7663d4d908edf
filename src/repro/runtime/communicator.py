"""Communicator implementation: point-to-point, management, attributes.

A :class:`CommImpl` is *per-rank* state (each rank holds its own instance,
as each process does in a real MPI); what ranks share is the pair of
context ids and the group membership, agreed collectively at creation time.

Point-to-point is eager: a send gathers the message into dense wire form
and hands it to the transport; standard/buffered/ready sends complete
locally, synchronous sends complete when the receiver matches (direct
callback in SM, ACK frame in DM).  This preserves every MPI 1.1 semantic
the paper's test suite exercises, including non-overtaking order.
"""

from __future__ import annotations

import pickle
import threading
from typing import Optional

from repro.errors import (MPIException, RevokedException, SUCCESS, ERR_ARG,
                          ERR_COMM, ERR_INTERN, ERR_OTHER, ERR_PROC_FAILED,
                          ERR_RANK, ERR_TAG)
from repro.datatypes.base import DatatypeImpl
from repro.runtime.buffers import extract_send_payload, land_payload, \
    recv_byte_views, validate_buffer
from repro.runtime.consts import (ANY_SOURCE, ANY_TAG, CART, CONGRUENT,
                                  GRAPH, IDENT, PROC_NULL, SIMILAR, TAG_UB,
                                  UNDEFINED, UNEQUAL)
from repro.runtime.envelope import (Envelope, MODE_BUFFERED, MODE_READY,
                                    MODE_STANDARD, MODE_SYNCHRONOUS)
from repro.runtime.groups import GroupImpl
from repro.runtime.requests import RequestImpl
from repro.runtime.topology import CartTopology, GraphTopology

# --- internal tags used on the collective context ------------------------------
TAG_CTX_AGREE = 1
TAG_OBJ_COLL = 2
TAG_INTERCOMM_HANDSHAKE = 3
# ULFM fault-tolerant management traffic (Shrink / Agree leader protocols)
TAG_FT_SHRINK = 4
TAG_FT_AGREE = 5

#: collective-schedule tags live above the management tags; each collective
#: call on a communicator draws a fresh tag from this window, so traffic of
#: concurrently outstanding collectives can never match across operations
NBC_TAG_BASE = 1 << 10
NBC_TAG_WINDOW = 1 << 22

# --- attribute keyvals ------------------------------------------------------------


class _KeyvalRegistry:
    """Process-wide registry for ``MPI_Keyval_create`` keys."""

    def __init__(self):
        self._lock = threading.Lock()
        self._next = 100
        self.entries: dict[int, tuple] = {}

    def create(self, copy_fn, delete_fn, extra_state) -> int:
        with self._lock:
            kv = self._next
            self._next += 1
            self.entries[kv] = (copy_fn, delete_fn, extra_state)
            return kv

    def free(self, keyval: int) -> None:
        with self._lock:
            self.entries.pop(keyval, None)

    def get(self, keyval: int):
        return self.entries.get(keyval)


KEYVALS = _KeyvalRegistry()

#: predefined attribute keys (values match on every communicator)
KEY_TAG_UB = 1
KEY_HOST = 2
KEY_IO = 3
KEY_WTIME_IS_GLOBAL = 4


class ProbeInfo:
    """Result of a (non-)blocking probe: enough to size the real receive."""

    __slots__ = ("source", "tag", "nelems", "is_object", "nbytes")

    def __init__(self, source, tag, nelems, is_object, nbytes):
        self.source = source
        self.tag = tag
        self.nelems = nelems
        self.is_object = is_object
        self.nbytes = nbytes


class CommImpl:
    """Runtime communicator (intra- or inter-)."""

    def __init__(self, rt, group: GroupImpl, ctx_pt2pt: int, ctx_coll: int,
                 name: str = "comm", remote_group: GroupImpl | None = None,
                 topology=None):
        self.rt = rt
        self.universe = rt.universe
        self.group = group
        self.remote_group = remote_group
        #: what send destinations / receive sources index into
        self.peer_group = group if remote_group is None else remote_group
        self.ctx_pt2pt = int(ctx_pt2pt)
        self.ctx_coll = int(ctx_coll)
        self.name = name
        self.topology = topology
        self.my_rank = group.rank_of_world(rt.world_rank)
        #: failure scopes, built once (groups are immutable): every other
        #: member (a collective's) and every possible ``ANY_SOURCE`` sender
        me = rt.world_rank
        self.member_peers = tuple(w for w in group.ranks if w != me)
        self._any_source_peers = self.member_peers if remote_group is None \
            else tuple(w for w in remote_group.ranks if w != me)
        #: does a message to another rank cross a wire (DM) transport?
        self._dm = getattr(self.universe.transport, "mode", "SM") == "DM"
        self.attributes: dict[int, object] = {
            KEY_TAG_UB: TAG_UB,
            KEY_HOST: PROC_NULL,
            KEY_IO: self.my_rank if self.my_rank != UNDEFINED else 0,
            KEY_WTIME_IS_GLOBAL: True,
        }
        self.freed = False
        self.permanent = False   # COMM_WORLD / COMM_SELF cannot be freed
        # every member records the agreed contexts: with per-process
        # universes (process backend) this keeps later allocations from
        # *any* member's counter above every context it already uses
        self.universe.note_context_ids(self.ctx_pt2pt, self.ctx_coll)
        # per-rank collective-call counter; MPI's "collectives are called
        # in the same order by all members" rule keeps it in agreement
        # across the communicator, so it doubles as a distributed tag
        # allocator without any extra traffic
        self._coll_seq = 0

    # -- basic inquiry ------------------------------------------------------
    @property
    def size(self) -> int:
        return self.group.size

    @property
    def rank(self) -> int:
        return self.my_rank

    @property
    def is_inter(self) -> bool:
        return self.remote_group is not None

    def remote_size(self) -> int:
        self._require_inter()
        return self.remote_group.size

    def _require_inter(self) -> None:
        if not self.is_inter:
            raise MPIException(ERR_COMM,
                               f"{self.name} is not an intercommunicator")

    def _require_intra(self, what: str) -> None:
        if self.is_inter:
            raise MPIException(ERR_COMM,
                               f"{what} is not defined on "
                               f"intercommunicators in MPI 1.1")

    def _check_alive(self) -> None:
        if self.freed:
            raise MPIException(ERR_COMM, f"{self.name} was freed")
        if self.my_rank == UNDEFINED:
            raise MPIException(ERR_COMM,
                               f"calling rank is not a member of {self.name}")
        # ULFM: every non-fault-tolerance operation on a revoked
        # communicator fails with ERR_REVOKED (Shrink/Agree/Is_revoked
        # deliberately do not come through here)
        if self.universe.revoked_contexts:
            self.universe.check_revoked(self.ctx_pt2pt)

    def _check_not_freed(self) -> None:
        """Liveness check for the FT trio, which must work when revoked."""
        if self.freed:
            raise MPIException(ERR_COMM, f"{self.name} was freed")
        if self.my_rank == UNDEFINED:
            raise MPIException(ERR_COMM,
                               f"calling rank is not a member of {self.name}")

    def compare(self, other: "CommImpl") -> int:
        """``MPI_Comm_compare``."""
        if self is other or (self.ctx_pt2pt == other.ctx_pt2pt
                             and self.group.ranks == other.group.ranks):
            return IDENT
        gc = self.group.compare(other.group)
        if gc == IDENT:
            return CONGRUENT
        if gc == SIMILAR:
            return SIMILAR
        return UNEQUAL

    # -- rank translation helpers -------------------------------------------------
    def _dest_world(self, dest: int) -> int:
        ranks = self.peer_group.ranks
        if not 0 <= dest < len(ranks):
            raise MPIException(ERR_RANK,
                               f"destination rank {dest} out of range for "
                               f"{self.name} (size {len(ranks)})")
        return ranks[dest]

    def _source_world(self, source: int) -> int:
        if source == ANY_SOURCE:
            return ANY_SOURCE
        ranks = self.peer_group.ranks
        if not 0 <= source < len(ranks):
            raise MPIException(ERR_RANK,
                               f"source rank {source} out of range for "
                               f"{self.name} (size {len(ranks)})")
        return ranks[source]

    def source_rank_of_world(self, world: int) -> int:
        """Translate an envelope's world source to a comm rank for Status."""
        if world < 0:
            return world
        return self.peer_group.rank_of_world(world)

    @staticmethod
    def _check_tag(tag: int, allow_any: bool = False) -> None:
        if tag == ANY_TAG and allow_any:
            return
        if not 0 <= tag <= TAG_UB:
            raise MPIException(ERR_TAG, f"tag {tag} out of range [0,"
                                        f" {TAG_UB}]")

    # ======================================================================
    # point-to-point
    # ======================================================================
    def _isend_raw(self, payload, nelems: int, is_object: bool,
                   dest_world: int, tag: int, ctx: int,
                   mode: int = MODE_STANDARD,
                   zero_copy: bool = False) -> RequestImpl:
        """Ship a dense payload; returns the (possibly completed) request.

        ``zero_copy=True`` marks a payload that *views* storage its
        owner will write again (the user buffer, a collective's
        accumulator): over the wire the request then completes only once
        the transport has streamed the bytes (``on_flushed``), which is
        the MPI-legal moment for buffer reuse.  An SM transport hands the
        array over by reference and is done with it on return, so there
        the envelope is marked ``borrowed``: whoever keeps it past the
        delivery copies it (:meth:`Envelope.claim`).
        """
        rt = self.rt
        req = RequestImpl(self.universe, RequestImpl.KIND_SEND)
        seq = rt.next_seq()
        env = Envelope(src=rt.world_rank, dst=dest_world, context=ctx,
                       tag=tag, mode=mode, seq=seq, payload=payload,
                       nelems=nelems, is_object=is_object)
        transport = self.universe.transport
        wire = self._dm and dest_world != rt.world_rank

        reservation = None
        if mode == MODE_BUFFERED:
            reservation = rt.bsend_pool.reserve(env.payload_nbytes())
        if mode == MODE_READY and not wire:
            if not self.universe.mailboxes[dest_world].has_posted_match(env):
                if reservation is not None:
                    rt.bsend_pool.release(reservation)
                raise MPIException(
                    ERR_OTHER,
                    "ready-mode send with no matching receive posted "
                    "(erroneous per MPI 1.1 §3.4)")
        if mode == MODE_SYNCHRONOUS:
            if wire:
                # eager: the receiver ACKs at match; rendezvous: the
                # writer ACKs after the CTS-triggered stream — either
                # way Ssend completes no earlier than the match
                rt.mailbox.register_ack(seq, req.complete)
            else:
                env.on_matched = req.complete
            if self.universe.sanitizer is not None \
                    and dest_world != rt.world_rank:
                # a blocked Ssend waits on its receiver: a wait-for
                # edge for the sanitizer's deadlock detection
                req.sanitize_block = (rt.world_rank, dest_world, ctx,
                                      tag, "Ssend")
        elif zero_copy:
            if wire:
                env.on_flushed = req.complete
            else:
                env.borrowed = True
        try:
            transport.send(env)
        except (BrokenPipeError, ConnectionResetError) as exc:
            # the peer's end is closed: this send fails with its failure;
            # the pump declares it, behind every frame the peer completed
            raise self.universe.peer_failure(dest_world) from exc
        finally:
            if reservation is not None:
                rt.bsend_pool.release(reservation)
        if mode != MODE_SYNCHRONOUS and not (zero_copy and wire):
            req.complete()
        elif not req.done and dest_world != rt.world_rank:
            # still pending, so parked on the peer (ACK wait / rendezvous
            # CTS): a dead peer or a revoked context must complete it with
            # the matching ULFM error instead of hanging.  An event since
            # the send went out is on record, which subscribing checks
            req.set_failure_scope((ctx,), (dest_world,))
            req.watch_failures()
        return req

    def _send_takes_view(self, count: int, datatype: DatatypeImpl,
                         dest_world: int, mode: int) -> bool:
        """Can this send borrow the user buffer instead of gather-copying?

        True for standard/synchronous sends of wire-friendly layouts
        over a wire transport: contiguous windows borrow a plain view,
        derived layouts whose run IR fits an iovec
        (:meth:`LayoutIR.wire_friendly`) borrow one byte view per run.
        The wire path never needs a private copy: an eager frame's bytes
        are in the kernel when ``sendall`` returns (the request
        completes on flush), and a rendezvous payload is streamed before
        its request completes — either way the buffer is only handed
        back to the user once the wire is done with it.  SM transports
        pass payload references to the receiver, so they keep the
        gather copy.
        """
        if mode not in (MODE_STANDARD, MODE_SYNCHRONOUS):
            return False
        if datatype.base.is_object:
            return False
        if dest_world == self.rt.world_rank:
            return False
        if not self._dm:
            return False
        lay = datatype.layout()
        return lay.wire_friendly(count * lay.size_elems)

    def isend(self, buf, offset: int, count: int, datatype: DatatypeImpl,
              dest: int, tag: int,
              mode: int = MODE_STANDARD) -> RequestImpl:
        self._check_alive()
        self._check_tag(tag)
        if dest == PROC_NULL:
            req = RequestImpl(self.universe, RequestImpl.KIND_SEND)
            req.complete()
            return req
        dest_world = self._dest_world(dest)
        if dest_world in self.universe.failed_ranks:
            raise self.universe.peer_failure(dest_world)
        zero_copy = self._send_takes_view(count, datatype, dest_world, mode)
        san = self.universe.sanitizer
        verify = san.snapshot_send(buf, offset, count, datatype) \
            if san is not None else None
        payload, nelems, is_object = extract_send_payload(
            buf, offset, count, datatype, allow_view=zero_copy)
        req = self._isend_raw(payload, nelems, is_object,
                              dest_world, tag, self.ctx_pt2pt,
                              mode, zero_copy=zero_copy)
        if verify is not None:
            req.sanitize_verify_send = verify
        return req

    def send(self, buf, offset, count, datatype, dest, tag,
             mode: int = MODE_STANDARD) -> None:
        self.isend(buf, offset, count, datatype, dest, tag, mode).wait()

    def irecv(self, buf, offset: int, count: int, datatype: DatatypeImpl,
              source: int, tag: int) -> RequestImpl:
        self._check_alive()
        self._check_tag(tag, allow_any=True)
        req = RequestImpl(self.universe, RequestImpl.KIND_RECV)
        req.source_comm = self
        if source == PROC_NULL:
            req.complete(source_world=PROC_NULL, tag=ANY_TAG,
                         count_elements=0)
            return req
        validate_buffer(buf, offset, count, datatype)
        req.recv_datatype = datatype
        san = self.universe.sanitizer
        source_world = self._source_world(source)
        if san is not None and source_world != ANY_SOURCE \
                and source_world != self.rt.world_rank:
            # specific-source receive: a wait-for edge for the
            # sanitizer's deadlock detection (ANY_SOURCE posts none —
            # any sender could complete it)
            req.sanitize_block = (self.rt.world_rank, source_world,
                                  self.ctx_pt2pt, tag, "Recv")

        def land(env):
            if san is not None:
                mismatch = san.check_signature(env, datatype, count)
                if mismatch is not None:
                    return mismatch
            return land_payload(buf, offset, count, datatype, env)

        def recv_views(env):
            # direct-landing fast path: writable per-run windows for
            # recv_into straight off the socket (contiguous or strided)
            return recv_byte_views(buf, offset, count, datatype, env)

        self._post_recv(req, source_world, tag, self.ctx_pt2pt, land,
                        recv_views)
        return req

    def _post_recv(self, req: RequestImpl, src_world: int, tag: int,
                   ctx: int, land, recv_views=None,
                   revocable: bool = True) -> None:
        """Post on this rank's mailbox, failure scope attached.

        The scope is recorded *before* the post, so the failure plane's
        walk never finds a queued receive without one (and a receive that
        matches an RTS on the spot has one to subscribe); an event on
        record before that walk could see the receive is checked after
        the post — between them the two cover every interleaving.
        """
        # peers whose death makes the receive undeliverable
        if src_world == ANY_SOURCE:
            peers = self._any_source_peers
        else:
            peers = () if src_world == self.rt.world_rank else (src_world,)
        mb = self.rt.mailbox
        req.set_failure_scope((ctx,) if revocable else (), peers, mb)
        mb.post_recv(req, src_world, tag, ctx, land, recv_views)
        u = self.universe
        if u.failed_ranks or u.revoked_contexts:
            req.fail_if_affected()

    def recv(self, buf, offset, count, datatype, source, tag) -> RequestImpl:
        req = self.irecv(buf, offset, count, datatype, source, tag)
        req.wait()
        return req

    # -- persistent requests ---------------------------------------------------
    def send_init(self, buf, offset, count, datatype, dest, tag,
                  mode: int = MODE_STANDARD) -> RequestImpl:
        self._check_alive()
        self._check_tag(tag)
        req = RequestImpl(self.universe, RequestImpl.KIND_SEND)
        req.make_persistent(lambda: self.isend(buf, offset, count, datatype,
                                               dest, tag, mode))
        return req

    def recv_init(self, buf, offset, count, datatype, source,
                  tag) -> RequestImpl:
        self._check_alive()
        self._check_tag(tag, allow_any=True)
        if source != PROC_NULL:
            validate_buffer(buf, offset, count, datatype)
        req = RequestImpl(self.universe, RequestImpl.KIND_RECV)
        req.source_comm = self
        req.recv_datatype = datatype
        req.make_persistent(lambda: self.irecv(buf, offset, count, datatype,
                                               source, tag))
        return req

    # -- probe / cancel -----------------------------------------------------------
    def _probe_env_info(self, env) -> ProbeInfo:
        return ProbeInfo(source=self.source_rank_of_world(env.src),
                         tag=env.tag, nelems=env.nelems,
                         is_object=env.is_object,
                         nbytes=env.payload_nbytes())

    def iprobe(self, source: int, tag: int) -> Optional[ProbeInfo]:
        self._check_alive()
        self._check_tag(tag, allow_any=True)
        env = self.rt.mailbox.iprobe(self._source_world(source), tag,
                                     self.ctx_pt2pt)
        return None if env is None else self._probe_env_info(env)

    def probe(self, source: int, tag: int) -> ProbeInfo:
        self._check_alive()
        self._check_tag(tag, allow_any=True)
        env = self.rt.mailbox.probe(self._source_world(source), tag,
                                    self.ctx_pt2pt)
        return self._probe_env_info(env)

    def cancel(self, req: RequestImpl) -> None:
        if req.persistent:
            inner = getattr(req, "persistent_inner", None)
            if inner is not None and not inner.done:
                self.cancel(inner)
            return
        if req.kind == RequestImpl.KIND_RECV:
            self.rt.mailbox.cancel_recv(req)
        # eager sends are already delivered; cancellation never succeeds,
        # which the standard permits (Test_cancelled stays False)

    # -- combined send/recv ----------------------------------------------------------
    def sendrecv(self, sendbuf, soffset, scount, sdtype, dest, stag,
                 recvbuf, roffset, rcount, rdtype, source,
                 rtag) -> RequestImpl:
        rreq = self.irecv(recvbuf, roffset, rcount, rdtype, source, rtag)
        try:
            self.send(sendbuf, soffset, scount, sdtype, dest, stag)
        except BaseException:
            # the call failed, so its receive goes too: left posted it
            # would take the next matching message into a window the
            # caller already has back
            self.rt.mailbox.discard_posted(rreq)
            raise
        rreq.wait()
        return rreq

    def sendrecv_replace(self, buf, offset, count, datatype, dest, stag,
                         source, rtag) -> RequestImpl:
        """``sendrecv`` from a private copy of the window into a private
        inbox (dense, of the base type, unless ``datatype`` is objects),
        then the inbox back into the window."""
        import numpy as np
        lay = validate_buffer(buf, offset, count, datatype)
        if lay is None:
            tmp, n, dt = list(buf[offset:offset + count]), count, datatype
            inbox = list(tmp)
        else:
            tmp = lay.gather(buf, offset, count)
            n, dt = len(tmp), _primitive_of(datatype)
            inbox = np.empty_like(tmp)
        rreq = self.sendrecv(tmp, 0, n, dt, dest, stag, inbox, 0, n, dt,
                             source, rtag)
        if source != PROC_NULL:
            if lay is None:
                for i in range(count):
                    buf[offset + i] = inbox[i]
            else:
                lay.scatter_range(buf, offset, inbox[:rreq.count_elements])
        return rreq

    # ======================================================================
    # internal dense/object messaging for collectives and management
    # ======================================================================
    def next_coll_tag(self) -> int:
        """Fresh tag for one collective operation instance.

        Purely local: every member calls collectives on a communicator in
        the same order (an MPI requirement), so the per-rank counters agree
        and the tags match up without negotiation.
        """
        self._coll_seq += 1
        return NBC_TAG_BASE + self._coll_seq % NBC_TAG_WINDOW

    def coll_send(self, payload, nelems, is_object, dest_comm_rank: int,
                  tag: int, borrow: bool = False) -> RequestImpl:
        """Internal send on the collective context (intra-comm).

        Never waits for the peer — which is what makes schedule execution
        deadlock-free — and returns the request: done once the payload is
        out of this rank's hands, which over the wire is when its bytes
        have left (at once for an eager frame written inline; after the
        writer's flush or the rendezvous otherwise).  ``borrow`` marks
        storage the schedule writes again (see :meth:`_isend_raw`).
        """
        # (over the wire every collective send completes on flush)
        return self._isend_raw(payload, nelems, is_object,
                               self.group.world_rank(dest_comm_rank), tag,
                               self.ctx_coll, zero_copy=borrow or self._dm)

    def coll_post_recv(self, src_comm_rank: int, tag: int, land,
                       recv_views=None) -> RequestImpl:
        """Post a nonblocking receive on the collective context.

        ``land(env)`` consumes the matched envelope and ``recv_views``
        offers the transport the window's byte views (mailbox contract);
        completion fires the returned request's listeners, which is what
        the schedule progress engine advances on.  The failure scope is
        the one peer: a collective's *wait* watches the whole group (see
        :meth:`collective_failure`), its receives stay posted for a live
        peer's late message.
        """
        req = RequestImpl(self.universe, RequestImpl.KIND_RECV)
        src_world = (ANY_SOURCE if src_comm_rank == ANY_SOURCE
                     else self.group.world_rank(src_comm_rank))
        self._post_recv(req, src_world, tag, self.ctx_coll, land,
                        recv_views)
        return req

    def collective_failure(self) -> MPIException | None:
        """What a collective on this communicator must end with, if the
        failure plane has anything on record for it — its collective
        context revoked, any member dead (a collective depends,
        transitively, on every member) — else None."""
        u = self.universe
        if self.ctx_coll in u.revoked_contexts:
            return RevokedException(self.ctx_coll)
        for world in self.member_peers:
            if world in u.failed_ranks:
                return u.peer_failure(world)
        return None

    def obj_send(self, obj, dest_comm_rank: int, tag: int,
                 world_dest: int | None = None, ctx: int | None = None) \
            -> None:
        """Pickle-and-send an arbitrary object (management traffic)."""
        blob = pickle.dumps(obj, protocol=4)
        dest_world = (world_dest if world_dest is not None
                      else self.group.world_rank(dest_comm_rank))
        self._isend_raw(blob, 1, True, dest_world, tag,
                        self.ctx_coll if ctx is None else ctx).wait()

    def obj_recv(self, src_comm_rank: int | None, tag: int,
                 world_src: int | None = None, ctx: int | None = None):
        """Receive-and-unpickle (management and FT-protocol traffic): must
        not hang on a dead peer — a failure mid-split/dup/shrink surfaces
        as ``ERR_PROC_FAILED`` — and ignores revocation (Shrink and Agree
        run on revoked communicators)."""
        box: dict[str, Envelope] = {}
        req = RequestImpl(self.universe, RequestImpl.KIND_RECV)

        def land(env):
            # the envelope outlives deliver(): claim any borrowed payload
            box["env"] = env.claim()
            return env.nelems, SUCCESS, ""

        src_world = (world_src if world_src is not None
                     else self.group.world_rank(src_comm_rank))
        self._post_recv(req, src_world, tag,
                        self.ctx_coll if ctx is None else ctx, land,
                        revocable=False)
        req.wait()
        return pickle.loads(bytes(box["env"].payload))

    def obj_bcast(self, obj, root: int):
        """Linear object broadcast used for communicator construction."""
        if self.my_rank == root:
            for r in range(self.size):
                if r != root:
                    self.obj_send(obj, r, TAG_CTX_AGREE)
            return obj
        return self.obj_recv(root, TAG_CTX_AGREE)

    def obj_gather(self, obj, root: int):
        if self.my_rank == root:
            out = [None] * self.size
            out[root] = obj
            for r in range(self.size):
                if r != root:
                    out[r] = self.obj_recv(r, TAG_OBJ_COLL)
            return out
        self.obj_send(obj, root, TAG_OBJ_COLL)
        return None

    def obj_scatter(self, objs, root: int):
        if self.my_rank == root:
            if len(objs) != self.size:
                raise MPIException(ERR_ARG,
                                   f"scatter list of {len(objs)} for comm "
                                   f"size {self.size}")
            for r in range(self.size):
                if r != root:
                    self.obj_send(objs[r], r, TAG_OBJ_COLL)
            return objs[root]
        return self.obj_recv(root, TAG_OBJ_COLL)

    # ======================================================================
    # communicator management (collective)
    # ======================================================================
    def _new_comm(self, group: GroupImpl, ctxs: tuple[int, int],
                  name: str, remote_group=None, topology=None) \
            -> Optional["CommImpl"]:
        if not group.contains_world(self.rt.world_rank):
            return None
        return CommImpl(self.rt, group, ctxs[0], ctxs[1], name=name,
                        remote_group=remote_group, topology=topology)

    def _agree_contexts(self, n_pairs: int = 1) -> list[tuple[int, int]]:
        """Leader allocates ``n_pairs`` context pairs, broadcasts to all.

        Each rank's universe allocates from a *local* counter (one per
        process under the process backend), so the leader first raises
        its floor to the highest counter in the group; combined with
        every member noting the result (``CommImpl.__init__``), two
        communicators sharing any member can never collide.
        """
        self._check_alive()
        floors = self.obj_gather(self.universe.ctx_floor, root=0)
        if self.my_rank == 0:
            self.universe.raise_ctx_floor(max(floors))
            pairs = [self.universe.alloc_context_pair()
                     for _ in range(n_pairs)]
        else:
            pairs = None
        pairs = self.obj_bcast(pairs, root=0)
        for p in pairs:
            self.universe.note_context_ids(*p)
        return pairs

    def dup(self) -> "CommImpl":
        """``MPI_Comm_dup`` — same group, fresh contexts, copied attrs."""
        self._check_alive()
        (ctxs,) = self._agree_contexts()
        out = CommImpl(self.rt, self.group, ctxs[0], ctxs[1],
                       name=f"{self.name}+dup",
                       remote_group=self.remote_group,
                       topology=self.topology)
        for keyval, value in list(self.attributes.items()):
            entry = KEYVALS.get(keyval)
            if entry is None:
                continue
            copy_fn, _, extra = entry
            if copy_fn is None:
                continue
            flag, newvalue = copy_fn(self, keyval, extra, value)
            if flag:
                out.attributes[keyval] = newvalue
        return out

    def create(self, newgroup: GroupImpl) -> Optional["CommImpl"]:
        """``MPI_Comm_create`` — collective over *this* communicator."""
        self._require_intra("Comm.Create")
        (ctxs,) = self._agree_contexts()
        return self._new_comm(newgroup, ctxs,
                              name=f"{self.name}+create")

    def split(self, color: int, key: int) -> Optional["CommImpl"]:
        """``MPI_Comm_split`` — collective partition by color/key."""
        self._require_intra("Comm.Split")
        self._check_alive()
        mine = (color, key, self.my_rank, self.universe.ctx_floor)
        entries = self.obj_gather(mine, root=0)
        if self.my_rank == 0:
            # allocate above every member's counter (see _agree_contexts)
            self.universe.raise_ctx_floor(max(f for _, _, _, f in entries))
            plans: list = [None] * self.size
            colors = sorted({c for c, _, _, _ in entries
                             if c != UNDEFINED})
            for c in colors:
                members = sorted(((k, r) for cc, k, r, _ in entries
                                  if cc == c))
                ranks = [r for _, r in members]
                ctxs = self.universe.alloc_context_pair()
                world = [self.group.world_rank(r) for r in ranks]
                for r in ranks:
                    plans[r] = (ctxs, world)
            plan = self.obj_scatter(plans, root=0)
        else:
            plan = self.obj_scatter(None, root=0)
        if plan is None:
            return None
        ctxs, world_ranks = plan
        return self._new_comm(GroupImpl(world_ranks), ctxs,
                              name=f"{self.name}+split")

    def free(self) -> None:
        """``MPI_Comm_free`` (has observable side effects, hence explicit,
        as the paper notes in §2.1)."""
        self._check_alive()
        if self.permanent:
            raise MPIException(ERR_COMM, f"cannot free {self.name}")
        for keyval in list(self.attributes):
            self._run_delete_callback(keyval)
        self.freed = True

    # ======================================================================
    # ULFM fault tolerance: Revoke / Shrink / Agree
    # ======================================================================
    def revoke(self) -> None:
        """``MPIX_Comm_revoke``: invalidate this communicator everywhere.

        Not collective — any member may call it (typically after an
        operation failed with ``ERR_PROC_FAILED``).  The revoke token is
        reliably broadcast: every receiver re-floods tokens it has not
        seen, so the revocation survives the originator dying mid-send.
        Every pending and future non-FT operation on the communicator
        then completes with ``ERR_REVOKED`` on every member.
        """
        self._check_not_freed()
        members = self.group.ranks
        if self.remote_group is not None:
            members += self.remote_group.ranks
        self.universe.note_revoked((self.ctx_pt2pt, self.ctx_coll),
                                   members, self.rt.world_rank)

    def is_revoked(self) -> bool:
        return self.ctx_pt2pt in self.universe.revoked_contexts

    def _ft_obj_send(self, obj, world_dest: int, tag: int) -> None:
        """obj_send for the FT protocols: never blocks on a dead peer,
        never trips the revocation check."""
        if world_dest in self.universe.failed_ranks:
            raise self.universe.peer_failure(world_dest)
        blob = pickle.dumps(obj, protocol=4)
        self._isend_raw(blob, 1, True, world_dest, tag,
                        self.ctx_coll).wait()

    def _ft_leader_round(self, what: str, tag: int, mine, fold):
        """The skeleton Shrink and Agree share: one leader-based round,
        retried with the next candidate when the leader dies in it.

        Candidates are the members in rank order, the known-dead skipped.
        A non-leader sends ``mine()`` to the leader and returns what the
        leader answers.  The leader hears every living member out — one
        that dies while it listens (``ERR_PROC_FAILED``) is marked and
        passed over — and answers those it heard with ``fold(heard,
        lost)``: ``heard`` maps world rank to contribution, its own
        included; ``lost`` is who died under it.  Messages to distinct
        leaders cannot cross-match, and per-pair FIFO keeps rounds
        ordered.
        """
        self._require_intra(f"Comm.{what}")
        self._check_not_freed()
        me = self.rt.world_rank
        for leader in self.group.ranks:
            if leader in self.universe.failed_ranks:
                continue
            if me != leader:
                try:
                    self._ft_obj_send(mine(), leader, tag)
                    return self.obj_recv(None, tag, world_src=leader)
                except MPIException as exc:
                    if exc.error_code != ERR_PROC_FAILED:
                        raise
                    continue    # this leader died mid-round: the next one
            heard, lost = {me: mine()}, set()
            for w in self.group.ranks:
                if w == me or w in self.universe.failed_ranks:
                    continue
                try:
                    heard[w] = self.obj_recv(None, tag, world_src=w)
                except MPIException as exc:
                    if exc.error_code != ERR_PROC_FAILED:
                        raise
                    lost.add(w)
            out = fold(heard, lost)
            for w in heard:
                if w == me:
                    continue
                try:
                    self._ft_obj_send(out, w, tag)
                except MPIException as exc:
                    if exc.error_code != ERR_PROC_FAILED:
                        raise
            return out
        raise MPIException(ERR_OTHER, f"{what} found no surviving leader "
                                      f"in {self.name}")

    def shrink(self) -> Optional["CommImpl"]:
        """``MPIX_Comm_shrink``: a new communicator of the survivors.

        Collective over the surviving members (works on a revoked
        communicator — that is its purpose).  Leader-based agreement on
        the existing context-floor machinery: the lowest surviving rank
        gathers each survivor's context floor and failure knowledge,
        allocates a fresh context pair above every floor, and scatters
        the (contexts, survivor-list) plan.
        """
        universe = self.universe

        def plan(heard, lost):
            failed = lost | set(universe.failed_ranks)
            for _, their_failed in heard.values():
                failed.update(their_failed)
            failed.discard(self.rt.world_rank)
            universe.raise_ctx_floor(max(f for f, _ in heard.values()))
            return (universe.alloc_context_pair(),
                    [w for w in self.group.ranks
                     if w in heard and w not in failed])

        ctxs, world_ranks = self._ft_leader_round(
            "Shrink", TAG_FT_SHRINK,
            lambda: (universe.ctx_floor, sorted(universe.failed_ranks)),
            plan)
        universe.note_context_ids(*ctxs)
        return self._new_comm(GroupImpl(world_ranks), tuple(ctxs),
                              name=f"{self.name}+shrink")

    def agree(self, flag: int) -> int:
        """``MPIX_Comm_agree``: fault-tolerant agreement.

        Returns the bitwise AND of every surviving member's ``flag``;
        completes even with failed members or a revoked communicator.
        """
        def conjoin(heard, lost):
            out = ~0
            for theirs in heard.values():
                out &= int(theirs)
            return out

        return int(self._ft_leader_round("Agree", TAG_FT_AGREE,
                                         lambda: int(flag), conjoin))

    # -- attribute caching -------------------------------------------------------
    def attr_put(self, keyval: int, value) -> None:
        self._check_alive()
        if KEYVALS.get(keyval) is None:
            raise MPIException(ERR_ARG, f"unknown keyval {keyval}")
        self._run_delete_callback(keyval)
        self.attributes[keyval] = value

    def attr_get(self, keyval: int):
        self._check_alive()
        return self.attributes.get(keyval)

    def attr_delete(self, keyval: int) -> None:
        self._check_alive()
        if keyval not in self.attributes:
            return
        self._run_delete_callback(keyval)
        del self.attributes[keyval]

    def _run_delete_callback(self, keyval: int) -> None:
        if keyval not in self.attributes:
            return
        entry = KEYVALS.get(keyval)
        if entry is None:
            return
        _, delete_fn, extra = entry
        if delete_fn is not None:
            delete_fn(self, keyval, self.attributes[keyval], extra)

    # ======================================================================
    # virtual topologies (collective constructors)
    # ======================================================================
    def cart_create(self, dims, periods, reorder: bool) \
            -> Optional["CommImpl"]:
        self._require_intra("Cartcomm creation")
        topo = CartTopology(dims, periods)
        if topo.size > self.size:
            raise MPIException(ERR_ARG,
                               f"cartesian grid of {topo.size} exceeds "
                               f"communicator size {self.size}")
        (ctxs,) = self._agree_contexts()
        # reorder is advisory; we keep the identity mapping (standard-legal)
        newgroup = self.group.incl(range(topo.size))
        return self._new_comm(newgroup, ctxs, name=f"{self.name}+cart",
                              topology=topo)

    def graph_create(self, index, edges, reorder: bool) \
            -> Optional["CommImpl"]:
        self._require_intra("Graphcomm creation")
        topo = GraphTopology(index, edges)
        if topo.nnodes > self.size:
            raise MPIException(ERR_ARG,
                               f"graph of {topo.nnodes} nodes exceeds "
                               f"communicator size {self.size}")
        (ctxs,) = self._agree_contexts()
        newgroup = self.group.incl(range(topo.nnodes))
        return self._new_comm(newgroup, ctxs, name=f"{self.name}+graph",
                              topology=topo)

    def cart_sub(self, remain_dims) -> Optional["CommImpl"]:
        topo = self._require_cart()
        color, key, kept_dims, kept_periods = topo.sub_keep(
            remain_dims, self.my_rank)
        sub = self.split(color, key)
        if sub is not None:
            if kept_dims:
                sub.topology = CartTopology(kept_dims, kept_periods)
            else:
                # zero remaining dimensions: single-process cartesian comm
                sub.topology = CartTopology([1], [False])
            sub.name = f"{self.name}+cartsub"
        return sub

    def _require_cart(self) -> CartTopology:
        if not isinstance(self.topology, CartTopology):
            raise MPIException(ERR_OTHER,
                               f"{self.name} has no cartesian topology")
        return self.topology

    def _require_graph(self) -> GraphTopology:
        if not isinstance(self.topology, GraphTopology):
            raise MPIException(ERR_OTHER,
                               f"{self.name} has no graph topology")
        return self.topology

    def topo_test(self) -> int:
        if isinstance(self.topology, CartTopology):
            return CART
        if isinstance(self.topology, GraphTopology):
            return GRAPH
        return UNDEFINED

    # ======================================================================
    # intercommunicators
    # ======================================================================
    def create_intercomm(self, local_leader: int, peer_comm: "CommImpl",
                         remote_leader: int, tag: int) \
            -> "CommImpl":
        """``MPI_Intercomm_create`` — collective over the local comm."""
        self._require_intra("Intercomm_create source")
        self._check_alive()
        i_am_leader = self.my_rank == local_leader
        # gather local counters so the allocating leader's floor covers
        # every member of *both* groups (see _agree_contexts)
        floors = self.obj_gather(self.universe.ctx_floor, root=local_leader)
        if i_am_leader:
            my_leader_world = peer_comm.group.world_rank(peer_comm.my_rank)
            remote_leader_world = peer_comm.group.world_rank(remote_leader)
            peer_comm.obj_send((list(self.group.ranks), max(floors)),
                               remote_leader, tag)
            remote_ranks, their_floor = peer_comm.obj_recv(remote_leader,
                                                           tag)
            if my_leader_world < remote_leader_world:
                # lower leader allocates, above both groups' floors
                self.universe.raise_ctx_floor(their_floor)
                ctxs = self.universe.alloc_context_pair()
                peer_comm.obj_send(ctxs, remote_leader, tag)
            else:
                ctxs = peer_comm.obj_recv(remote_leader, tag)
            payload = (remote_ranks, ctxs)
        else:
            payload = None
        remote_ranks, ctxs = self.obj_bcast(payload, root=local_leader)
        return CommImpl(self.rt, self.group, ctxs[0], ctxs[1],
                        name=f"{self.name}+inter",
                        remote_group=GroupImpl(remote_ranks))

    def merge(self, high: bool) -> "CommImpl":
        """``MPI_Intercomm_merge`` — collective over the intercommunicator."""
        self._require_inter()
        self._check_alive()
        # obj_gather's default rank->world translation goes through the
        # *local* group, so on an intercommunicator this gathers each
        # side's counters to its own leader (see _agree_contexts for why
        # the allocation floor must cover every member)
        floors = self.obj_gather(self.universe.ctx_floor, root=0)
        if self.my_rank == 0:
            my_leader_world = self.group.world_rank(0)
            remote_leader_world = self.remote_group.world_rank(0)
            i_allocate = my_leader_world < remote_leader_world
            # leaders exchange their sides' floors; the lower one
            # allocates above both groups
            self.obj_send((bool(high), max(floors)), 0,
                          TAG_INTERCOMM_HANDSHAKE,
                          world_dest=remote_leader_world)
            their_high, their_floor = self.obj_recv(
                0, TAG_INTERCOMM_HANDSHAKE, world_src=remote_leader_world)
            if i_allocate:
                self.universe.raise_ctx_floor(max(max(floors),
                                                  their_floor))
                ctxs = self.universe.alloc_context_pair()
                self.obj_send(ctxs, 0, TAG_INTERCOMM_HANDSHAKE,
                              world_dest=remote_leader_world)
            else:
                ctxs = self.obj_recv(0, TAG_INTERCOMM_HANDSHAKE,
                                     world_src=remote_leader_world)
            if bool(high) == bool(their_high):
                # tie: order by leader world rank, per common practice
                mine_first = my_leader_world < remote_leader_world
            else:
                mine_first = not high
            payload = (ctxs, mine_first)
        else:
            payload = None
        # within the *local* group of the intercommunicator (like
        # obj_gather above, obj_bcast translates ranks through it)
        payload = self.obj_bcast(payload, root=0)
        ctxs, mine_first = payload
        if mine_first:
            ranks = list(self.group.ranks) + list(self.remote_group.ranks)
        else:
            ranks = list(self.remote_group.ranks) + list(self.group.ranks)
        return CommImpl(self.rt, GroupImpl(ranks), ctxs[0], ctxs[1],
                        name=f"{self.name}+merged")

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        kind = "inter" if self.is_inter else "intra"
        return (f"CommImpl({self.name}, {kind}, size={self.size}, "
                f"rank={self.my_rank}, ctx={self.ctx_pt2pt})")


def _primitive_of(datatype: DatatypeImpl) -> DatatypeImpl:
    """The predefined basic type matching a datatype's base."""
    from repro.datatypes import primitives
    for t in primitives.BASIC_TYPES:
        if t.base is datatype.base:
            return t
    # fall back on dtype equality (covers user-constructed bases)
    for t in primitives.BASIC_TYPES:
        if t.base.np_dtype == datatype.base.np_dtype:
            return t
    raise MPIException(ERR_INTERN,
                       f"no primitive for base {datatype.base.name}")
