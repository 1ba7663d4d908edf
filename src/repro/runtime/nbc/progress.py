"""Progress engine: advance a :class:`Schedule` to completion.

A :class:`CollRequestImpl` is the request behind a (non)blocking collective.
It subclasses :class:`~repro.runtime.requests.RequestImpl`, so the whole
Wait/Test/Waitall/Waitany machinery — and the OO layer's ``Request`` class —
work on collectives and point-to-point requests interchangeably.

The engine is event-driven, not polled: every runtime receive fires its
completion listener from whichever thread delivered the envelope, so a
schedule advances as a cascade —

* :meth:`launch` runs rounds until one blocks on outstanding receives;
* the last receive of that round to land fires its listener, which runs the
  round's computes and keeps advancing, possibly in a peer's thread;
* when the final round finishes the request completes, waking any waiter.

Sends on the collective context are eager (they never block), so schedule
execution cannot deadlock: each rank only ever waits for data, and every
send is issued as soon as its round is reached.

Tag discipline: each collective operation instance gets a fresh tag from
:meth:`CommImpl.next_coll_tag`.  MPI requires all members to call
collectives on a communicator in the same order, so the per-communicator
counters agree across ranks and concurrent outstanding collectives on one
communicator can never match each other's traffic.
"""

from __future__ import annotations

import threading
from collections import deque

from repro.errors import MPIException, SUCCESS, ERR_INTERN
from repro.obs.trace import TRACE
from repro.runtime.collective.common import contrib_from_env, send_contrib
from repro.runtime.requests import RequestImpl
from repro.runtime.nbc.schedule import Compute, Recv, Schedule, Send
from repro.util import faultinject

_cascade = threading.local()


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
        self._pending = 0
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
        self.add_listener(
            lambda _: self.universe.remove_abort_listener(self._abort_fail))
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
        """Advance rounds until one blocks on receives or the end is hit."""
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
            recvs = [op for op in rnd if isinstance(op, Recv)]
            with self._plock:
                # +1 guard token held by this thread while issuing, so
                # receives matched synchronously can't finish the round
                # out from under us
                self._pending = len(recvs) + 1
            try:
                for op in recvs:
                    self._post_recv(op)
                for op in rnd:
                    if isinstance(op, Send):
                        self._issue_send(op)
            except Exception as exc:  # noqa: BLE001 - rounds >= 1 run in
                # delivery threads; anything escaping would hang the waiter
                self._fail(exc)
                return
            if not self._dec():
                return          # a recv listener will resume the cascade
            if not self._finish_round(rnd):
                return          # completed with error
            # fall through: round done synchronously, continue the loop

    def _dec(self) -> bool:
        with self._plock:
            self._pending -= 1
            return self._pending == 0

    def _on_recv_done(self, req: RequestImpl) -> None:
        if req.error != SUCCESS:
            # completed with a ULFM error, box never filled — and if the
            # failure predates the post, before this schedule's own
            # failure listener has run: fail with that error instead of
            # decoding an empty box
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
            for op in rnd:
                if isinstance(op, Recv):
                    op.box.contrib = contrib_from_env(op.box.contrib)
            for op in rnd:
                if isinstance(op, Compute):
                    op.fn()
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

    # -- primitive ops ---------------------------------------------------------
    def _post_recv(self, op: Recv) -> None:
        box = op.box

        def land(env):
            # stash the raw envelope only — decoding can raise, and this
            # runs in the delivery thread under Mailbox._consume; the
            # round tail decodes it in this schedule's own cascade.
            # claim(): the envelope outlives deliver(), so a payload
            # borrowed from a transport recv pool must be copied out now
            box.contrib = env.claim()
            return env.nelems, SUCCESS, ""

        self.comm.coll_post_recv(op.peer, op.tag, land) \
            .add_listener(self._on_recv_done)

    def _issue_send(self, op: Send) -> None:
        send_contrib(self.comm, op.resolve(), op.peer, op.tag)

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
