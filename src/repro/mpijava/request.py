"""``Request`` — handle to a non-blocking communication operation.

Static members ``Waitany``/``Waitall``/``Waitsome`` (and the ``Test``
variants) operate on arrays of requests; per the paper §2.1, the Status
objects they produce carry the array ``index`` as an extra field.
"""

from __future__ import annotations

from typing import Optional

from repro.jni import capi, handles as H
from repro.mpijava.errhandler import route_error
from repro.mpijava.status import Status
from repro.runtime.consts import UNDEFINED


class Request:
    """One outstanding operation; freed automatically on completion."""

    _handle: int
    _persistent = False

    def __init__(self, handle: int):
        self._handle = handle

    def _guard(self, fn, *args):
        """Run a stub call under the request's communicator's error
        handler — the completion of a nonblocking operation reports its
        failure (e.g. a user reduce op raising inside an i-collective)
        with the same semantics the blocking call would have; the handler
        is looked up only once something failed."""
        try:
            return fn(*args)
        except Exception as exc:
            route_error(exc, self._errhandler, fn)
            raise

    def _errhandler(self) -> int:
        """Handle of the error handler attached now (read on error only)."""
        return capi.mpi_request_errhandler(self._handle)

    # -- single-request completion ---------------------------------------
    def Wait(self) -> Status:
        """Block until complete; returns the Status (sends included).

        Completing a persistent request deactivates it but keeps the
        handle valid for the next ``Start``.
        """
        status = Status(self._guard(capi.mpi_wait, self._handle))
        if not self._persistent:
            self._handle = H.REQUEST_NULL
        return status

    def Test(self) -> Optional[Status]:
        """Non-blocking completion check; Status if done, else None."""
        done, cstatus = self._guard(capi.mpi_test, self._handle)
        if not done:
            return None
        if not self._persistent:
            self._handle = H.REQUEST_NULL
        return Status(cstatus)

    def Cancel(self) -> None:
        capi.mpi_cancel(self._handle)

    def Free(self) -> None:
        """Explicit ``MPI_Request_free`` (see paper §2.1: Free is explicit
        for Request because it has observable side effects)."""
        capi.mpi_request_free(self._handle)
        self._handle = H.REQUEST_NULL

    def Is_null(self) -> bool:
        return self._handle == H.REQUEST_NULL

    # -- array operations (static members, as in mpiJava) ----------------------
    @staticmethod
    def _array_guard(fn, requests: list["Request"]):
        """Run an array stub on the requests' handles.  Error routing is
        lenient across mixed handlers: if any involved communicator set
        ``ERRORS_RETURN`` the error surfaces to the caller, otherwise it
        is fatal (poisons the job)."""
        hs = [r._handle for r in requests]
        try:
            return fn(hs)
        except Exception as exc:
            route_error(exc, lambda: H.ERRORS_RETURN if any(
                capi.mpi_request_errhandler(h) == H.ERRORS_RETURN
                for h in hs) else H.ERRORS_ARE_FATAL, fn)
            raise

    @staticmethod
    def _mark_done(requests: list["Request"], index: int) -> None:
        req = requests[index]
        if not req._persistent:
            req._handle = H.REQUEST_NULL

    @staticmethod
    def _all_statuses(requests: list["Request"], statuses) -> list[Status]:
        """Waitall / Testall result: one Status per request, in order."""
        out = []
        for i, c in enumerate(statuses):
            if c is not None:
                Request._mark_done(requests, i)
                out.append(Status(c))
            else:
                out.append(Status(capi.CStatus(index=i)))
        return out

    @staticmethod
    def _some_statuses(requests: list["Request"], statuses) -> list[Status]:
        """Waitsome / Testsome result: the completed ones, ``index`` set.
        (The array result replaces C's output count, per paper §2.1 —
        the count is just ``len(result)``.)"""
        for c in statuses:
            Request._mark_done(requests, c.index)
        return [Status(c) for c in statuses]

    @staticmethod
    def Waitany(requests: list["Request"]) -> Status:
        """Wait for any request; ``status.index`` identifies which."""
        index, cstatus = Request._array_guard(capi.mpi_waitany, requests)
        if index == UNDEFINED:
            return Status(capi.CStatus(index=UNDEFINED))
        Request._mark_done(requests, index)
        return Status(cstatus)

    @staticmethod
    def Testany(requests: list["Request"]) -> Optional[Status]:
        done, index, cstatus = Request._array_guard(capi.mpi_testany,
                                                    requests)
        if not done:
            return None
        Request._mark_done(requests, index)
        return Status(cstatus)

    @staticmethod
    def Waitall(requests: list["Request"]) -> list[Status]:
        return Request._all_statuses(
            requests, Request._array_guard(capi.mpi_waitall, requests))

    @staticmethod
    def Testall(requests: list["Request"]) -> Optional[list[Status]]:
        done, statuses = Request._array_guard(capi.mpi_testall, requests)
        return Request._all_statuses(requests, statuses) if done else None

    @staticmethod
    def Waitsome(requests: list["Request"]) -> list[Status]:
        """Wait for at least one; returns Statuses with ``index`` set."""
        return Request._some_statuses(
            requests, Request._array_guard(capi.mpi_waitsome, requests))

    @staticmethod
    def Testsome(requests: list["Request"]) -> list[Status]:
        return Request._some_statuses(
            requests, Request._array_guard(capi.mpi_testsome, requests))

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        state = "null" if self.Is_null() else f"handle={self._handle}"
        return f"{type(self).__name__}({state})"
