"""Job-level engine: the :class:`Universe` and per-rank runtimes.

A :class:`Universe` is one MPI job: ``nprocs`` ranks, one transport, the
mailbox per rank, the context-id allocator, the ``Wtime`` clock and the
abort machinery.  A :class:`RankRuntime` is one rank's view of the job —
the executor binds one to each SPMD thread, and the JNI stub layer resolves
the current thread's runtime through :func:`current_runtime`.
"""

from __future__ import annotations

import functools
import itertools
import threading
from typing import TYPE_CHECKING, Callable, Iterable, Optional

from repro import config
from repro.errors import (AbortException, MPIException, ProcFailedException,
                          RevokedException, ERR_INTERN, ERR_OTHER)
from repro.obs.trace import TRACE
from repro.runtime.bsend_pool import BsendPool
from repro.runtime.envelope import (Envelope, decode_abort_env,
                                    encode_abort_env, encode_peerfail_env,
                                    encode_revoke_env)
from repro.runtime.groups import GroupImpl
from repro.runtime.mailbox import Mailbox
from repro.util.clock import Clock, WallClock

if TYPE_CHECKING:
    # repro.transport imports this package (transport/base needs
    # runtime.envelope); importing it back at module level made
    # ``import repro.transport`` work only after ``import repro.runtime``
    from repro.transport.base import Transport

#: context ids 0..3 are reserved: COMM_WORLD (pt2pt, coll), COMM_SELF ditto
CTX_WORLD_PT2PT = 0
CTX_WORLD_COLL = 1
CTX_SELF_PT2PT = 2
CTX_SELF_COLL = 3
_FIRST_DYNAMIC_CTX = 4

_tls = threading.local()

#: ``try_current_runtime()``: the calling thread's rank runtime, or None —
#: a partial over the builtin ``getattr``, so the lookup every binding
#: call makes runs no Python frame (:func:`current_runtime` raises)
try_current_runtime: Callable[[], Optional["RankRuntime"]] = \
    functools.partial(getattr, _tls, "runtime", None)


def current_runtime() -> "RankRuntime":
    """The rank runtime bound to the calling thread (raises if unbound)."""
    rt = try_current_runtime()
    if rt is None:
        raise MPIException(ERR_OTHER,
                           "no MPI rank is bound to this thread; run under "
                           "repro.mpirun(...) or call MPI.Init first")
    return rt


def bind_thread(rt: "RankRuntime") -> None:
    _tls.runtime = rt


def unbind_thread() -> None:
    _tls.runtime = None


class Universe:
    """One MPI job: shared state for all of its ranks.

    In thread mode one Universe hosts every rank (``local_ranks`` covers
    all of them).  Under the process backend each OS process builds its
    own Universe with ``local_ranks=(my_rank,)`` — a *single-rank view*
    of the job: only that rank's mailbox exists, every other rank is
    reachable only through the (wire) transport, and job-wide state like
    the abort flag or context-id agreement travels in envelopes.
    """

    def __init__(self, nprocs: int, transport: Transport | str = "inproc",
                 clock: Clock | None = None, cost_model=None,
                 local_ranks: Iterable[int] | None = None):
        if nprocs < 1:
            raise MPIException(ERR_OTHER, f"nprocs must be >= 1, "
                                          f"got {nprocs}")
        self.nprocs = int(nprocs)
        if isinstance(transport, str):
            from repro.transport import make_transport
            transport = make_transport(transport, self.nprocs)
        if transport.nprocs != self.nprocs:
            raise MPIException(ERR_INTERN,
                               "transport sized for a different job")
        self.transport = transport
        self.clock: Clock = clock or WallClock()
        # the tracer reads timestamps through the job clock, so modeled
        # (VirtualClock) runs emit deterministic traces
        TRACE.use_clock(self.clock)
        #: optional NetworkModel; the OO layer charges wrapper costs to it
        self.cost_model = cost_model
        self.world_group = GroupImpl(range(self.nprocs))
        if local_ranks is None:
            local_ranks = range(self.nprocs)
        self.local_ranks = tuple(sorted(set(int(r) for r in local_ranks)))
        for r in self.local_ranks:
            if not 0 <= r < self.nprocs:
                raise MPIException(ERR_OTHER,
                                   f"local rank {r} out of range")
        self._ctx_lock = threading.Lock()
        self._next_ctx = _FIRST_DYNAMIC_CTX
        self._abort_lock = threading.Lock()
        self._abort: AbortException | None = None
        #: callbacks fired exactly once when the job is poisoned; every
        #: blocked wait registers one, which is what makes abort delivery
        #: event-driven (no poll ticks anywhere on the wait paths)
        self._abort_listeners: dict[Callable[[], None], None] = {}
        # -- ULFM failure plane (beside, not inside, the abort plane) ----
        self._fail_lock = threading.Lock()
        #: world rank -> classified cause, for every peer known dead
        self.failed_ranks: dict[int, BaseException | None] = {}
        #: context ids of revoked communicators (pt2pt and coll ids both)
        self.revoked_contexts: set[int] = set()
        #: persistent callbacks fired on *every* failure-plane event (a
        #: newly dead peer or a newly revoked context).  Unlike abort
        #: listeners these are not one-shot: each decides per event
        #: whether to complete with ERR_PROC_FAILED / ERR_REVOKED.  Only
        #: what parks outside a posted queue lives here; queued receives
        #: are found by walking the mailboxes
        self._failure_listeners: dict[Callable[[], None], None] = {}
        self._closed = False
        #: indexed by world rank; None for ranks hosted in other processes.
        #: Wired (and the transport started) only after the abort state
        #: above exists: a wire transport may deliver a peer's KIND_ABORT
        #: the instant its pump starts.
        self.mailboxes: list[Mailbox | None] = [None] * self.nprocs
        #: dynamic verification layer (repro.check.sanitizer), installed
        #: before the transport starts so its probes can route from the
        #: first delivery; None (the common case) keeps every hook to a
        #: single attribute test
        self.sanitizer = None
        if config.sanitize():
            from repro.check.sanitizer import Sanitizer
            self.sanitizer = Sanitizer(self).install()
            # transports with internal wait states (a writer stalled
            # on bulk-lane space) feed them into the wait-for graph
            transport.set_sanitizer(self.sanitizer)
        for r in self.local_ranks:
            mb = Mailbox(r, self)
            self.mailboxes[r] = mb
            transport.set_deliver(r, mb.deliver)
            transport.set_direct_claim(r, mb.claim_direct_recv)
        transport.start()

    # -- context ids --------------------------------------------------------
    def alloc_context_pair(self) -> tuple[int, int]:
        """Fresh (pt2pt, collective) context ids.

        Called by a single leader rank during communicator construction; the
        leader distributes the pair collectively so every member agrees.
        With per-process universes every process has its *own* counter, so
        the agreement protocols first raise the leader's floor to the
        highest counter in the group (:attr:`ctx_floor` /
        :meth:`raise_ctx_floor`) and every member notes received ids
        (:meth:`note_context_ids`) — any two communicators sharing a member
        therefore get distinct contexts.
        """
        with self._ctx_lock:
            pair = (self._next_ctx, self._next_ctx + 1)
            self._next_ctx += 2
            return pair

    @property
    def ctx_floor(self) -> int:
        """Lowest context id this universe would allocate next."""
        with self._ctx_lock:
            return self._next_ctx

    def raise_ctx_floor(self, floor: int) -> None:
        """Never allocate a context id below ``floor`` from now on."""
        with self._ctx_lock:
            if floor > self._next_ctx:
                self._next_ctx = int(floor)

    def note_context_ids(self, *ctx_ids: int) -> None:
        """Record context ids agreed elsewhere (bump the local counter)."""
        if ctx_ids:
            self.raise_ctx_floor(max(ctx_ids) + 1)

    # -- abort ---------------------------------------------------------------
    def poison(self, origin_rank: int, errorcode: int = 1,
               cause: BaseException | None = None) -> AbortException:
        """Poison the job and wake every blocked waiter; never raises.

        Idempotent and locked: the first caller wins (two simultaneously
        failing ranks cannot race the flag), later calls return the
        established abort.  ``cause`` — typically the exception that killed
        the originating rank — is preserved as the abort's ``__cause__`` so
        the executor can fold victims' failures back to the origin.
        """
        return self._establish_abort(
            AbortException(errorcode, origin_rank, cause=cause),
            broadcast=True)

    def _establish_abort(self, exc: AbortException,
                         broadcast: bool) -> AbortException:
        """Install ``exc`` as the job abort (first caller wins) and wake
        all local waiters; optionally broadcast it to every rank."""
        with self._abort_lock:
            first = self._abort is None
            if first:
                self._abort = exc
                listeners = self._abort_listeners
                self._abort_listeners = {}
        if first:
            if broadcast:
                try:
                    self.transport.broadcast_control(encode_abort_env(
                        exc.origin_rank, exc.abort_code, exc.__cause__))
                except Exception:
                    pass  # teardown is best-effort once the job is poisoned
            for mb in self.mailboxes:
                if mb is not None:
                    mb.on_abort()
            for fn in listeners:
                try:
                    fn()
                except Exception:  # pragma: no cover - listeners don't raise
                    pass
        return self._abort

    def abort(self, origin_rank: int, errorcode: int = 1) -> None:
        """``MPI_Abort``: poison the job and raise in the calling rank."""
        raise self.poison(origin_rank, errorcode)

    def check_abort(self) -> None:
        if self._abort is not None:
            raise self._abort

    def add_abort_listener(self, fn: Callable[[], None]) -> bool:
        """Register an abort wakeup; fired immediately if already poisoned.

        Returns True if the job was already aborted (and ``fn`` ran).
        Listeners must not block and must tolerate running in whichever
        thread poisons the job.
        """
        with self._abort_lock:
            if self._abort is None:
                self._abort_listeners[fn] = None
                return False
        fn()
        return True

    def remove_abort_listener(self, fn: Callable[[], None]) -> None:
        with self._abort_lock:
            # absent: already fired (abort) or never registered
            self._abort_listeners.pop(fn, None)

    def note_abort_delivery(self, env: Envelope | None = None) -> None:
        """A transport delivered a KIND_ABORT frame: adopt it locally.

        In thread mode the poisoning rank set the shared flag *before*
        broadcasting, so this returns immediately.  Under process
        isolation the envelope is the only carrier of the abort — its
        errorcode / origin / pickled cause reconstruct the
        ``AbortException`` here, without re-broadcasting (every process
        already got the origin's full-mesh broadcast).
        """
        if self._abort is not None or env is None:
            return
        origin, errorcode, cause = decode_abort_env(env)
        self._establish_abort(
            AbortException(errorcode, origin, cause=cause),
            broadcast=False)

    @property
    def aborted(self) -> bool:
        return self._abort is not None

    @property
    def abort_exception(self) -> AbortException | None:
        return self._abort

    # -- ULFM failure plane --------------------------------------------------
    def note_peer_failure(self, rank: int,
                          cause: BaseException | None = None,
                          broadcast: bool = False) -> None:
        """Record a dead peer and wake affected waiters; never raises.

        This is the *recoverable* counterpart of :meth:`poison`:
        idempotent per rank, it marks ``rank`` failed, fires the
        persistent failure listeners and has every mailbox walk its
        posted queues (and wake its probes) — each pending operation
        decides for itself whether the loss affects it and, if so,
        completes with ``ERR_PROC_FAILED``.  The job as a whole keeps
        running.
        """
        rank = int(rank)
        with self._fail_lock:
            if rank in self.failed_ranks:
                return
            self.failed_ranks[rank] = cause
            listeners = list(self._failure_listeners)
        if broadcast:
            try:
                self.transport.broadcast_control(
                    encode_peerfail_env(rank, cause))
            except Exception:
                pass  # peers learn via their own transport EOF
        self._fire_failure_event(listeners)

    def note_revoked(self, contexts: Iterable[int], origin_rank: int = -1,
                     broadcast: bool = True) -> None:
        """Record revoked context ids; re-broadcast any that are news.

        Reliable broadcast in the ULFM sense: every receiver of a revoke
        token forwards tokens it has not seen before, so a revoke
        initiated by a rank that dies mid-broadcast still reaches every
        survivor (any one delivery suffices to re-flood).  Termination
        is guaranteed because already-known contexts are never
        re-forwarded.
        """
        contexts = tuple(int(c) for c in contexts)
        with self._fail_lock:
            fresh = [c for c in contexts if c not in self.revoked_contexts]
            if fresh:
                self.revoked_contexts.update(fresh)
            listeners = list(self._failure_listeners)
        if not fresh:
            return
        if broadcast:
            try:
                self.transport.broadcast_control(
                    encode_revoke_env(origin_rank, contexts))
            except Exception:
                pass
        self._fire_failure_event(listeners)

    def _fire_failure_event(self, listeners) -> None:
        # listeners before the walk: a collective schedule then fails on
        # its own scope before its queued sub-receives do, and their
        # completions find the cascade already stopped
        for fn in listeners:
            try:
                fn()
            except Exception:  # pragma: no cover - listeners don't raise
                pass
        for mb in self.mailboxes:
            if mb is not None:
                mb.on_failure_event()

    def add_failure_listener(self, fn: Callable[[], None]) -> bool:
        """Register a persistent failure-event callback.

        Fired on every subsequent failure-plane event; fired once
        immediately (returning True) if any failure or revocation is
        already on record, so registration after the event still sees it.
        """
        with self._fail_lock:
            self._failure_listeners[fn] = None
            pending = bool(self.failed_ranks or self.revoked_contexts)
        if pending:
            fn()
        return pending

    def remove_failure_listener(self, fn: Callable[[], None]) -> None:
        with self._fail_lock:
            self._failure_listeners.pop(fn, None)

    def peer_failure(self, rank: int) -> ProcFailedException:
        """Build the ERR_PROC_FAILED exception for dead peer ``rank``,
        chained to its recorded cause if the failure plane has one."""
        exc = ProcFailedException(rank)
        cause = self.failed_ranks.get(rank)
        if cause is not None:
            exc.__cause__ = cause
        return exc

    def check_revoked(self, *contexts: int) -> None:
        """Raise :class:`RevokedException` if any context is revoked."""
        for ctx in contexts:
            if ctx in self.revoked_contexts:
                raise RevokedException(ctx)

    # -- cost-model hooks (modeled benchmark mode) -----------------------------
    def charge_wrapper(self, nbytes: int) -> None:
        """Charge the OO-binding per-call overhead to a virtual clock."""
        if self.cost_model is not None:
            self.clock.advance(self.cost_model.wrapper_call_time(nbytes))

    # -- lifecycle ---------------------------------------------------------------
    def close(self) -> None:
        if not self._closed:
            self._closed = True
            if self.sanitizer is not None:
                self.sanitizer.uninstall()
            TRACE.release_clock(self.clock)
            self.transport.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()


class RankRuntime:
    """One rank's runtime state (bound to exactly one thread at a time)."""

    def __init__(self, universe: Universe, world_rank: int):
        from repro.runtime.communicator import CommImpl  # cycle-free import
        self.universe = universe
        self.world_rank = int(world_rank)
        self.mailbox = universe.mailboxes[self.world_rank]
        if self.mailbox is None:
            raise MPIException(ERR_INTERN,
                               f"rank {self.world_rank} is not hosted by "
                               f"this process (local ranks: "
                               f"{universe.local_ranks})")
        #: ``next_seq()``: this rank's next message sequence number (a
        #: C-level counter: safe from the rank thread and its pump alike)
        self.next_seq = itertools.count(1).__next__
        self.bsend_pool = BsendPool(universe)
        self.initialized = False
        self.finalized = False
        self.attached_buffer_hint = 0
        self.comm_world = CommImpl(
            self, universe.world_group,
            ctx_pt2pt=CTX_WORLD_PT2PT, ctx_coll=CTX_WORLD_COLL,
            name="MPI.COMM_WORLD")
        self.comm_self = CommImpl(
            self, GroupImpl([self.world_rank]),
            ctx_pt2pt=CTX_SELF_PT2PT, ctx_coll=CTX_SELF_COLL,
            name="MPI.COMM_SELF")
        # the predefined communicators cannot be freed (MPI 1.1 §5.4.3)
        self.comm_world.permanent = True
        self.comm_self.permanent = True

    # -- environment (MPI 1.1 chapter 7) ------------------------------------
    def wtime(self) -> float:
        return self.universe.clock.now()

    def wtick(self) -> float:
        return self.universe.clock.tick()

    def processor_name(self) -> str:
        import socket as _socket
        return f"{_socket.gethostname()}/rank{self.world_rank}"

    def init(self) -> None:
        if self.initialized:
            raise MPIException(ERR_OTHER, "MPI.Init called twice")
        self.initialized = True

    def finalize(self) -> None:
        if not self.initialized:
            raise MPIException(ERR_OTHER, "MPI.Finalize before Init")
        if self.finalized:
            raise MPIException(ERR_OTHER, "MPI.Finalize called twice")
        # fault point: after the target's last real operation, before
        # the Finalize barrier — peers already inside Finalize must
        # still unwind
        from repro.util import faultinject
        faultinject.maybe_fail("finalize", self.world_rank)
        # the standard requires Finalize to behave like a barrier — but a
        # barrier over dead peers can never complete, and ULFM requires
        # Finalize to succeed on survivors regardless of failures
        from repro.errors import ERR_PROC_FAILED, ERR_REVOKED
        from repro.runtime import nbc
        from repro.runtime.collective.barrier import plan_barrier
        try:
            nbc.run(self.comm_world, *plan_barrier(self.comm_world))
        except MPIException as exc:
            if exc.error_code not in (ERR_PROC_FAILED, ERR_REVOKED):
                raise
        if self.universe.sanitizer is not None:
            # after the barrier: every rank is in Finalize, so leftover
            # queue/request/handle state is a real leak, not a race
            self.universe.sanitizer.finalize_audit(self)
        self.finalized = True
