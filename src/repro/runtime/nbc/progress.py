"""Executing a :class:`Schedule`: two executors over one set of primitives.

Who runs a schedule, when:

* a **blocking** collective runs in the calling thread — :func:`run`:
  per round post the receives, issue the sends, one ``wait_all`` (at
  most one sleep) until the round is complete, decode, compute.
  It builds no request, lock or listener of its own, raises whatever a
  round raises (a user reduction op's exception unchanged) and never
  writes from a pump thread;
* a **nonblocking** one (``I*``) is a :class:`CollRequestImpl` started by
  :func:`launch` — a :class:`~repro.runtime.requests.RequestImpl`, so the
  whole Wait/Test/Waitall/Waitany machinery, and the OO layer's
  ``Request`` class, work on collectives and point-to-point requests
  interchangeably.  That engine is event-driven, not polled: the last
  sub-request of a round to complete fires its listener, which runs the
  round's computes and keeps advancing — in whichever thread delivered
  (a peer's rank thread in-process, a pump or the writer over the wire:
  ``PUMP_INLINE_MAX`` and ``Channel.deferred`` in
  :mod:`repro.transport.wire` guard exactly these continuations) — and
  when the final round finishes the request completes, waking any waiter.

Both run the same rounds through the same primitives (:func:`_post_recv`,
:func:`send_contrib`, :func:`_decode`), so one builder per algorithm
serves both.

A round is **complete** when every receive has landed *and every send has
flushed* — its bytes have left this rank: at once for an eager frame
written inline, after the writer's flush or the rendezvous otherwise —
and only then do the round's computes run: a fold may write storage the
round sent (the ownership rule, :mod:`repro.runtime.collective.common`),
and no collective ends with a send of its own still parked.  No send
waits for its *peer's collective*, only for the peer's transport, so
schedule execution cannot deadlock: each rank only ever waits for data.

Failure scope: a collective depends (transitively) on every member, so
any member's death — or a revocation of the collective context — ends
the wait with ``ERR_PROC_FAILED`` / ``ERR_REVOKED``: a
:class:`CollRequestImpl` subscribes for its lifetime, :func:`run` only
while it sleeps.  The sub-receives keep their one-peer scope either way
and stay posted, so a live peer's late message still finds them — and
writes nowhere: a schedule that ends in error unhooks the ``into`` of
every receive still pending (:func:`_abandon`), because that storage may
be the caller's window, which is the caller's again once the call raised.

Tag discipline: each collective operation instance gets a fresh tag from
:meth:`CommImpl.next_coll_tag`.  MPI requires all members to call
collectives on a communicator in the same order, so the per-communicator
counters agree across ranks and concurrent outstanding collectives on one
communicator can never match each other's traffic.
"""

from __future__ import annotations

import threading
from collections import deque

from repro.datatypes.primitives import primitive_for_dtype
from repro.errors import MPIException, SUCCESS, ERR_INTERN
from repro.obs.trace import TRACE
from repro.runtime.buffers import land_payload, recv_byte_views
from repro.runtime.collective.common import contrib_from_env, send_contrib
from repro.runtime.requests import RequestImpl, wait_all
from repro.runtime.nbc.schedule import Compute, Recv, Schedule, Send
from repro.util import faultinject

_cascade = threading.local()


# -- primitive ops (both executors) --------------------------------------------

def _post_recv(comm, op: Recv) -> RequestImpl:
    box = op.box
    if op.into is not None:
        # a point-to-point receive window in all but name: landed, or
        # streamed off the wire, by the functions ``irecv`` uses — read
        # off the op at the match, so an abandoned receive (``_abandon``)
        # still matches its message and writes nowhere
        prim = primitive_for_dtype(op.into.dtype)

        def land_into(env):
            into = op.into
            if into is None:
                return env.nelems, SUCCESS, ""
            return land_payload(into, 0, into.shape[0], prim, env)

        def views_into(env):
            into = op.into
            return None if into is None \
                else recv_byte_views(into, 0, into.shape[0], prim, env)

        return comm.coll_post_recv(op.peer, op.tag, land_into, views_into)

    def land(env):
        # stash the raw envelope only — decoding can raise, and this
        # runs in the delivery thread under Mailbox._consume; the
        # round tail decodes it in the schedule's own thread.
        # claim(): the envelope outlives deliver(), so a borrowed
        # payload (a transport's recv pool, a peer's accumulator)
        # must be copied out now
        box.contrib = env.claim()
        return env.nelems, SUCCESS, ""

    return comm.coll_post_recv(op.peer, op.tag, land)


def _abandon(recvs) -> None:
    """Unhook the landing arrays of the ``(op, request)`` receives a
    failed schedule leaves posted: the late message each waits for is
    matched and dropped.  (One already matched — its body streaming, its
    rendezvous accepted — finishes where it was told to, as a
    point-to-point receive would.)"""
    for op, req in recvs:
        if not req.done:
            op.into = None


def _decode(op: Recv, req: RequestImpl) -> None:
    """A completed receive's box, as a contribution."""
    if op.into is not None:
        op.box.contrib = ("dense", op.into[:req.count_elements])
    else:
        op.box.contrib = contrib_from_env(op.box.contrib)


# -- blocking collectives: the calling thread runs the rounds ------------------

def run(comm, name: str, build) -> None:
    """Build one blocking collective's schedule and execute it here.

    ``build`` is what :func:`launch` takes.  Raises what the round
    raised: a sub-request's MPI error, a user op's own exception, the
    job abort, or — with nothing else to report — the failure of any
    member (``ERR_PROC_FAILED``) or a revocation (``ERR_REVOKED``).
    """
    sched = Schedule()
    build(sched)
    universe = comm.universe
    rank = comm.rt.world_rank
    t0 = TRACE.now() if TRACE.enabled else 0.0
    if universe.failed_ranks or universe.revoked_contexts:
        failure = comm.collective_failure()
        if failure is not None:
            raise failure
    for i, rnd in enumerate(sched.rounds):
        # fault point: between schedule rounds — peers already hold
        # this rank's earlier contributions but will starve waiting
        # on the next round's
        faultinject.maybe_fail("coll.round", rank, own_thread_only=True)
        t_round = TRACE.now() if TRACE.enabled else 0.0
        recvs, reqs = [], []
        try:
            for op in rnd:
                if type(op) is Recv:
                    recvs.append(op)
                    reqs.append(_post_recv(comm, op))
            for op in rnd:
                if type(op) is Send:
                    reqs.append(send_contrib(comm, op.resolve(), op.peer,
                                             op.tag, op.borrow))
            # complete: every receive landed, every send flushed — or any
            # member's death / a revocation ended the sleep
            wait_all(reqs, universe, comm.collective_failure)
        except BaseException:
            # the receives still pending stay posted, and land nowhere
            _abandon(zip(recvs, reqs))
            raise
        for op, req in zip(recvs, reqs):    # reqs: the receives' first
            _decode(op, req)
        for op in rnd:
            if type(op) is Compute:
                op.fn(*op.args)
        if TRACE.enabled:
            TRACE.span(rank, f"{name}.round", "coll", t_round,
                       {"round": i, "ops": len(rnd)})
    if TRACE.enabled:
        TRACE.span(rank, f"coll.{name}", "coll", t0,
                   {"rounds": len(sched.rounds)})


# -- nonblocking collectives: the event-driven engine ---------------------------

def _trampoline(fn) -> None:
    """Run a schedule continuation without cross-rank stack nesting.

    The in-process transport delivers synchronously, so one rank's send
    can complete a peer's receive, whose listener advances the peer's
    schedule, whose send completes the next peer's receive — a chain that
    would otherwise nest one Python stack level per hop and overflow on
    chain-shaped collectives (Scan, ring) past ~70 ranks.  Instead, a
    continuation arriving while this thread is already advancing a
    schedule is queued and run when the active one unwinds, so stack
    depth stays constant however long the chain is.
    """
    queue = getattr(_cascade, "queue", None)
    if queue is not None:
        queue.append(fn)
        return
    queue = deque([fn])
    _cascade.queue = queue
    try:
        while queue:
            queue.popleft()()
    finally:
        _cascade.queue = None


class CollRequestImpl(RequestImpl):
    """One in-flight collective operation (a schedule being executed)."""

    KIND_COLL = "coll"

    def __init__(self, comm, schedule: Schedule, name: str = "coll"):
        super().__init__(comm.universe, self.KIND_COLL)
        self.comm = comm
        self.schedule = schedule
        self.name = name
        self._round = -1
        self._plock = threading.Lock()
        #: sub-requests of the current round not yet complete (receives
        #: to land, sends to flush), plus the issuing thread's guard
        self._pending = 0
        self._recvs: list = []
        self._exc: Exception | None = None
        #: trace stamps: world rank lane + current round's start time
        self._trace_rank = comm.rt.world_rank
        self._t_round = 0.0

    # -- launch ----------------------------------------------------------------
    def launch(self) -> "CollRequestImpl":
        """Start executing; returns self (possibly already complete).

        The request registers as an abort listener for its lifetime: a job
        abort fails every in-flight schedule immediately (waking waiters
        event-driven), while a schedule that already failed on its own
        keeps its original exception.  On a job already poisoned the
        schedule is failed without running at all.
        """
        self.universe.add_abort_listener(self._abort_fail)
        self.add_listener(self._on_done)
        # ULFM failure scope: a collective depends (transitively) on every
        # member, so any member's death — or a revocation — fails the
        # whole schedule with ERR_PROC_FAILED / ERR_REVOKED.  A schedule
        # sits in no posted queue, so it subscribes; the failure plane
        # fires subscribers before it walks the queues holding the
        # sub-receives, so the cascade they trigger sees ``done`` and
        # stops (and ``_post_recv``'s error branch covers a sub-receive
        # that finds the failure already on record when it is posted).
        self.set_failure_scope((self.comm.ctx_coll,),
                               self.comm.member_peers)
        self.watch_failures()
        if not self.done:
            _trampoline(self._step)
        return self

    # -- engine ----------------------------------------------------------------
    def _step(self) -> None:
        """Advance rounds until one has to wait or the end is hit."""
        rounds = self.schedule.rounds
        while True:
            if self.done:
                return   # failed (schedule error or job abort); stop issuing
            self._round += 1
            if self._round >= len(rounds):
                self.complete()
                return
            # fault point: between schedule rounds — peers already hold
            # this rank's earlier contributions but will starve waiting
            # on the next round's
            faultinject.maybe_fail("coll.round", self._trace_rank,
                                   own_thread_only=True)
            rnd = rounds[self._round]
            if TRACE.enabled:
                self._t_round = TRACE.now()
            comm_ops = [op for op in rnd if type(op) is not Compute]
            with self._plock:
                # +1 guard token held by this thread while issuing, so
                # sub-requests completed synchronously can't finish the
                # round out from under us
                self._pending = len(comm_ops) + 1
            self._recvs = recvs = []
            try:
                for op in comm_ops:
                    if type(op) is Recv:
                        recvs.append((op, _post_recv(self.comm, op)))
                for _, req in recvs:
                    req.add_listener(self._on_op_done)
                for op in comm_ops:
                    if type(op) is Send:
                        send_contrib(self.comm, op.resolve(), op.peer,
                                     op.tag, op.borrow) \
                            .add_listener(self._on_op_done)
            except Exception as exc:  # noqa: BLE001 - rounds >= 1 run in
                # delivery threads; anything escaping would hang the waiter
                self._fail(exc)
                return
            if self.done:
                # failed from another thread while this one was posting:
                # ``_on_done`` may have run before these were on record
                _abandon(recvs)
                return
            if not self._dec():
                return          # a listener will resume the cascade
            if not self._finish_round(rnd):
                return          # completed with error
            # fall through: round done synchronously, continue the loop

    def _on_done(self, _req) -> None:
        self.universe.remove_abort_listener(self._abort_fail)
        if self.error != SUCCESS:
            # however it failed (a round's error, a member's death, a
            # revocation, the job abort): what stays posted lands nowhere
            _abandon(self._recvs)

    def _dec(self) -> bool:
        with self._plock:
            self._pending -= 1
            return self._pending == 0

    def _on_op_done(self, req: RequestImpl) -> None:
        if req.error != SUCCESS:
            # e.g. a receive completed with a ULFM error, box never
            # filled — and if the failure predates the post, before this
            # schedule's own failure listener has run: fail with that
            # error instead of decoding an empty box
            try:
                req.raise_if_error()
            except MPIException as exc:
                self._fail(exc)
        if not self._dec():
            return
        _trampoline(self._resume)

    def _resume(self) -> None:
        if self.done:
            return   # failed (schedule error or job abort) while blocked
        if self._finish_round(self.schedule.rounds[self._round]):
            self._step()

    def _finish_round(self, rnd) -> bool:
        """Decode the round's receives, run its computes.

        Both run here — in the thread advancing *this* schedule — never in
        the delivery thread, so a decoding error (e.g. an object payload
        whose unpickling raises) fails this rank's request instead of
        escaping into the sender's stack.  Returns False if the request
        errored out.
        """
        if self.done:
            # failed (peer death / revoke / abort) while this round was
            # in flight: its receives were completed-with-error without
            # landing, so there is nothing to decode
            return False
        try:
            for op, req in self._recvs:
                _decode(op, req)
            for op in rnd:
                if type(op) is Compute:
                    op.fn(*op.args)
        except Exception as exc:  # noqa: BLE001 - surfaced via the request
            self._fail(exc)
            return False
        if TRACE.enabled:
            # one span per schedule round: receives landed + computes ran
            TRACE.span(self._trace_rank, f"{self.name}.round", "coll",
                       self._t_round, {"round": self._round,
                                       "ops": len(rnd)})
        return True

    def _fail(self, exc: Exception) -> None:
        """Complete with an error, keeping the original exception.

        The waiter re-raises the exception object itself (see
        :meth:`raise_if_error`), so a user reduction op that raises, say,
        ``ZeroDivisionError`` surfaces it unchanged — the same contract
        the inline blocking collectives had.
        """
        with self._plock:
            if self._exc is None:
                self._exc = exc
        code = exc.error_code if isinstance(exc, MPIException) \
            else ERR_INTERN
        self.complete(error=code,
                      error_message=f"{self.name} schedule failed: {exc}")

    def _abort_fail(self) -> None:
        """Abort listener: fail this in-flight schedule with the job abort.

        If the schedule already failed on its own, that exception wins —
        the abort only wakes the waiter, it does not rewrite history.
        """
        if self.done:
            return
        abort = self.universe.abort_exception
        if abort is None:  # pragma: no cover - listener implies poisoned
            return
        with self._plock:
            if self._exc is None:
                self._exc = abort
        self.complete(error=abort.error_code, error_message=str(abort))

    def raise_if_error(self) -> None:
        if self._exc is not None:
            raise self._exc
        super().raise_if_error()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        state = "done" if self.done else f"round {self._round}"
        return f"CollRequestImpl({self.name}, {state})"


def launch(comm, name: str, build) -> CollRequestImpl:
    """Build a schedule for one collective call and start executing it.

    ``build(schedule)`` appends the rank's rounds; it runs exactly once,
    allocates its operation tags via :meth:`CommImpl.next_coll_tag`, and
    must itself perform no communication.  Every collective entry point
    funnels through here so tag allocation stays in call order on all
    ranks.
    """
    sched = Schedule()
    build(sched)
    req = CollRequestImpl(comm, sched, name=name)
    if TRACE.enabled:
        # whole-operation span, launch to completion (completion may be
        # in a peer's delivery thread; the span lands on this rank's
        # lane either way)
        t0 = TRACE.now()
        rank = req._trace_rank
        nrounds = len(sched.rounds)
        req.add_listener(lambda _: TRACE.span(
            rank, f"coll.{name}", "coll", t0, {"rounds": nrounds}))
    return req.launch()
