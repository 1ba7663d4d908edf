"""Request state machine for non-blocking and persistent communication.

A :class:`RequestImpl` is the runtime object behind the OO layer's
``Request``/``Prequest``.  Completion may happen in another thread (the
matching happens in whichever thread delivers the envelope), so the state
is lock-protected.  A request costs a flag: completing one stores the
status and ``done`` and touches nothing else unless someone asked to be
told — a completion listener, which is also all a sleeping thread is:
sleeping is one primitive, the :class:`Waiter`, built only when a thread
has to block and shared by ``wait``, ``wait_all``, ``wait_any``,
``wait_some`` and the sanitizer's probing wait.
"""

from __future__ import annotations

import threading
from typing import Callable, Optional, Sequence

from repro.errors import (MPIException, ProcFailedException,
                          RevokedException, ERR_PENDING, ERR_PROC_FAILED,
                          ERR_REQUEST, ERR_REVOKED, SUCCESS)


class Waiter:
    """One thread parked until ``need`` awaited requests have completed.

    The gate is a lock acquired at construction: :meth:`park` blocks
    acquiring it again and the completer's release lets the sleeper
    through (how ``threading.Condition`` queues a waiter).  It opens
    exactly once and stays open: a late :meth:`wake` is a no-op, and
    :meth:`park` may be called again.  Awaiting nothing, it is open.
    """

    __slots__ = ("_gate", "_guard", "_need")

    def __init__(self, need: int = 1):
        self._gate = threading.Lock()
        if need > 0:
            self._gate.acquire()
        self._guard = threading.Lock()
        self._need = need

    def wake(self, req: "RequestImpl | None" = None) -> None:
        """Completion listener (``req`` is done: one fewer awaited) and
        abort poke (no ``req``).  The abort opens the gate outright, and
        so does an errored completion (see :func:`wait_all`)."""
        with self._guard:
            if self._need <= 0:
                return
            self._need = 0 if req is None or req.error != SUCCESS \
                else self._need - 1
            if self._need:
                return
        self._gate.release()

    def park(self, timeout: float | None = None) -> bool:
        """Sleep until the gate opens; False if ``timeout`` ran out."""
        if not self._gate.acquire(timeout=-1 if timeout is None else timeout):
            return False
        self._gate.release()
        return True


class RequestImpl:
    """One outstanding communication operation."""

    KIND_SEND = "send"
    KIND_RECV = "recv"

    # what most requests never change lives on the class: building one
    # stores only what differs per message
    cancelled = False
    error = SUCCESS
    error_message = ""
    # status fields (world-rank source; the OO layer translates)
    status_source_world = -1
    status_tag = -1
    count_elements = 0
    # persistent-request machinery
    persistent = False
    active = True                # inactive persistent requests await Start
    _issue: Optional[Callable[[], "RequestImpl"]] = None
    persistent_inner: Optional["RequestImpl"] = None
    # ULFM failure scope (see set_failure_scope)
    _ft_contexts: tuple = ()
    _ft_peers: tuple = ()
    _ft_mailbox = None
    ft_failed_rank = -1
    ft_revoked_context = -1

    def __init__(self, universe, kind: str):
        self.universe = universe
        self.kind = kind
        self._lock = threading.Lock()
        self.done = False
        #: completion callbacks ``fn(request)``; None until someone asks
        self._listeners: list | None = None
        san = getattr(universe, "sanitizer", None)
        if san is not None:
            san.note_request(self)

    # -- completion (called by mailbox / engine threads) ---------------------
    def complete(self, source_world: int = -1, tag: int = -1,
                 count_elements: int = 0, error: int = SUCCESS,
                 error_message: str = "") -> None:
        with self._lock:
            if self.done:
                return
            self.status_source_world = source_world
            self.status_tag = tag
            self.count_elements = count_elements
            self.error = error
            self.error_message = error_message
            listeners, self._listeners = self._listeners, None
            # last: whoever reads ``done`` without the lock sees the status
            self.done = True
        for fn in listeners or ():
            fn(self)

    def complete_cancelled(self) -> None:
        with self._lock:
            if self.done:
                return
            self.cancelled = True
        self.complete()

    def add_listener(self, fn: Callable[["RequestImpl"], None]) -> bool:
        """Register a completion callback ``fn(request)``; fired
        immediately if done.  ``done`` is checked under the lock
        :meth:`complete` takes, so no completion slips between the check
        and a sleep that ``fn`` ends.

        Returns True if the request was already complete.
        """
        with self._lock:
            if not self.done:
                if self._listeners is None:
                    self._listeners = [fn]
                else:
                    self._listeners.append(fn)
                return False
        fn(self)
        return True

    def remove_listener(self, fn) -> None:
        with self._lock:
            if self._listeners and fn in self._listeners:
                self._listeners.remove(fn)

    # -- ULFM failure scope ----------------------------------------------------
    def set_failure_scope(self, contexts: tuple, peers: tuple,
                          mailbox=None) -> None:
        """Record what makes this operation undeliverable.

        ``peers`` are the world ranks whose death does (the matched
        source, or every other group member for ``ANY_SOURCE`` /
        collectives); ``contexts`` are the context ids whose revocation
        cancels it.  Recording subscribes to nothing: a receive queued in
        ``mailbox`` is found there by the failure plane's walk, which
        calls :meth:`fail_if_affected`; an affected request *completes
        with the error code*, so the normal Wait/Test path surfaces
        ``ERR_PROC_FAILED`` / ``ERR_REVOKED`` through the communicator's
        error handler.
        """
        self._ft_contexts = contexts
        self._ft_peers = peers
        self._ft_mailbox = mailbox

    def watch_failures(self) -> None:
        """Subscribe the recorded scope to the failure plane while the
        request is pending — for what parks where no walk looks: a
        rendezvous or synchronous send, a receive matched to an RTS, a
        collective schedule.  Checked once now if anything is on record."""
        check = self.fail_if_affected
        self.universe.add_failure_listener(check)
        self.add_listener(
            lambda _: self.universe.remove_failure_listener(check))

    def fail_if_affected(self) -> None:
        if self.done:
            return
        u = self.universe
        for ctx in self._ft_contexts:
            if ctx in u.revoked_contexts:
                self.ft_revoked_context = ctx
                self._fail_now(ERR_REVOKED,
                               f"communicator (context {ctx}) was revoked")
                return
        for peer in self._ft_peers:
            if peer in u.failed_ranks:
                self.ft_failed_rank = peer
                self._fail_now(ERR_PROC_FAILED, f"rank {peer} failed")
                return

    def _fail_now(self, error: int, message: str) -> None:
        # a failed receive leaves its PostedRecv behind: pull it out of
        # the matching queues so it cannot consume a later message (and
        # the Finalize audit doesn't see a phantom leak); not finding it
        # means an arrival is matching it now — first completion stands
        mb = self._ft_mailbox
        if mb is not None:
            mb.discard_posted(self)
        self.complete(error=error, error_message=message)

    # -- waiting --------------------------------------------------------------
    def wait(self) -> None:
        """Block until complete; raise on communication error or job abort.

        A request that already completed reports its own outcome (success
        or its original error) even if the job aborted afterwards.
        """
        if not self.done:
            _block((self,), self.universe)
            if not self.done:
                # woken by the abort listener, not by completion
                self.universe.check_abort()
        self._observe_completion()

    def test(self) -> bool:
        if self.done:
            self._observe_completion()
            return True
        self.universe.check_abort()
        return False

    def _observe_completion(self) -> None:
        """The Wait/Test that *observes* completion is the MPI moment a
        send buffer returns to user ownership: the sanitizer's mutation
        checksum fires here, once, on every backend alike; then the
        request's own error."""
        verify = getattr(self, "sanitize_verify_send", None)
        if verify is not None:
            self.sanitize_verify_send = None
            verify()
        self.raise_if_error()

    def raise_if_error(self) -> None:
        if self.error != SUCCESS:
            if self.error == ERR_PROC_FAILED:
                exc = ProcFailedException(self.ft_failed_rank,
                                          self.error_message)
                cause = self.universe.failed_ranks.get(self.ft_failed_rank)
                if cause is not None:
                    exc.__cause__ = cause
                raise exc
            if self.error == ERR_REVOKED:
                raise RevokedException(self.ft_revoked_context,
                                       self.error_message)
            raise MPIException(self.error, self.error_message)

    # -- persistent requests ----------------------------------------------------
    def make_persistent(self, issue: Callable[[], "RequestImpl"]) -> None:
        """``issue()`` starts the operation afresh, once per Start."""
        self.persistent = True
        self.active = False
        self._issue = issue

    def start(self) -> None:
        """(Re)activate a persistent request (``MPI_Start``): issue a
        fresh inner operation (with its own failure scope) and adopt its
        outcome when it completes."""
        if not self.persistent:
            raise MPIException(ERR_REQUEST, "Start on a non-persistent "
                                            "request")
        if self.active and not self.done:
            raise MPIException(ERR_PENDING, "Start on an active persistent "
                                            "request")
        with self._lock:
            self.done = False
            self.cancelled = False
            self.error = SUCCESS
            self.error_message = ""
            self.active = True
        inner = self.persistent_inner = self._issue()
        inner.add_listener(self._adopt)

    def _adopt(self, inner: "RequestImpl") -> None:
        if inner.cancelled:
            self.complete_cancelled()
        else:
            self.complete(inner.status_source_world, inner.status_tag,
                          inner.count_elements, inner.error,
                          inner.error_message)

    def deactivate(self) -> None:
        """Wait/Test on a completed persistent request deactivates it."""
        self.active = False

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        state = "done" if self.done else "pending"
        return f"RequestImpl({self.kind}, {state})"


def _block(requests: Sequence[RequestImpl], universe,
           any_one: bool = False, failure=None) -> None:
    """Park the calling thread, on one :class:`Waiter`, until all of
    ``requests`` have completed (the first, when ``any_one``); an errored
    completion or a job abort ends the sleep early, and the caller looks
    at ``done`` to see which it was.  A collective round passes
    ``failure`` (:meth:`CommImpl.collective_failure`): the sleep then
    also ends on a failure-plane event it reports — any member's death, a
    revocation — while the round's receives keep their own one-peer
    scope and stay posted."""
    waiter = Waiter(1 if any_one else len(requests))
    wake = waiter.wake
    parked = [r for r in requests if not r.add_listener(wake)]
    universe.add_abort_listener(wake)
    poke = None
    if failure is not None:
        def poke():
            if failure() is not None:
                wake()
        universe.add_failure_listener(poke)
    try:
        san = getattr(universe, "sanitizer", None)
        if san is None or any_one:
            waiter.park()
        else:
            # waiting for all makes each pending request's wait-for edge
            # real: the deadlock-probing sleep (REPRO_SANITIZE=1)
            san.sanitized_wait(parked, waiter)
    finally:
        universe.remove_abort_listener(wake)
        if poke is not None:
            universe.remove_failure_listener(poke)
        for r in parked:
            if not r.done:      # wait_any's losers keep no dead waiter
                r.remove_listener(wake)


def wait_any(requests: list[Optional[RequestImpl]], universe) -> int:
    """``MPI_Waitany`` core: index of first completion, or -1 if all null."""
    live = [r for r in requests if r is not None]
    if not live:
        return -1
    if not any(r.done for r in live):
        _block(live, universe, any_one=True)
    for i, r in enumerate(requests):
        if r is not None and r.done:
            return i
    # woken by the abort listener with nothing complete
    universe.check_abort()
    raise AssertionError("waitany woke without a completed request")


def wait_all(requests: list[Optional[RequestImpl]], universe,
             failure=None) -> None:
    """``MPI_Waitall`` core: one sleep for the whole set, outcomes in
    index order as waiting on each in turn would report them — an errored
    request raises once every one before it is done, without waiting for
    those after it (hence: an errored completion cuts the sleep short).
    With ``failure`` (a collective round, see :func:`_block`) a sleep it
    cut short raises what it reports."""
    live = [r for r in requests if r is not None]
    for i, r in enumerate(live):
        while not r.done:
            # on ``r`` whatever it did since that look (registering on a
            # done request counts down at once) and on what is pending
            # after it: never a sleep on nothing
            _block([r] + [p for p in live[i + 1:] if not p.done], universe,
                   failure=failure)
            if not r.done:
                universe.check_abort()
                exc = failure() if failure is not None else None
                if exc is not None:
                    raise exc
        r._observe_completion()


def test_all(requests: list[Optional[RequestImpl]], universe) -> bool:
    # completion first: like wait(), fully-completed request sets report
    # their own outcome even if the job aborted afterwards
    if all(r is None or r.done for r in requests):
        return True
    universe.check_abort()
    return False


def wait_some(requests: list[Optional[RequestImpl]], universe) -> list[int]:
    """``MPI_Waitsome``: block for >=1 completion, return all done indices."""
    idx = wait_any(requests, universe)
    if idx < 0:
        return []
    return [i for i, r in enumerate(requests) if r is not None and r.done]


def test_some(requests: list[Optional[RequestImpl]], universe) -> list[int]:
    done = [i for i, r in enumerate(requests) if r is not None and r.done]
    if not done:
        universe.check_abort()
    return done
