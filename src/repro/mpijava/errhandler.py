"""``Errhandler`` — error-handler objects.

Python has exceptions, so the two predefined handlers map to:

* ``MPI.ERRORS_ARE_FATAL`` (the default, per the standard) — any error,
  MPI or not, poisons the whole job, like a fatal error in a C MPI
  program: every peer rank blocked in any MPI call unwinds with
  :class:`~repro.errors.AbortException`;
* ``MPI.ERRORS_RETURN`` — the error surfaces to the caller as an
  :class:`~repro.errors.MPIException` (the analogue of checking return
  codes); a non-MPI exception escaping user code inside an MPI call is
  wrapped as ``MPIException(ERR_OTHER)`` with the original preserved as
  ``__cause__``.

Error handlers govern how an error *surfaces on the rank that hit it*;
either way, a rank whose thread dies poisons the job (see
:mod:`repro.executor.runner`), so peers never hang on a dead rank.

A binding call runs its stub in a plain ``try``; only an escaping
exception pays for :func:`route_error`, which looks up the handler.
"""

from __future__ import annotations

from typing import Callable

from repro.errors import AbortException, ERR_OTHER, MPIException
from repro.jni import handles as H
from repro.runtime.engine import current_runtime


def route_error(exc: Exception, errhandler_of: Callable[[], int],
                fn) -> None:
    """Raise what an error handler makes of ``exc``, which escaped
    ``fn``, or return if it propagates unchanged (a bare ``raise``).

    ``errhandler_of()`` yields the active handler's handle, evaluated
    only here, once an error actually escaped (a request's communicator
    can change handlers between post and wait).  Routing:

    * :class:`AbortException` propagates — the job is already dead;
    * under ``ERRORS_RETURN``, an :class:`MPIException` propagates
      unchanged and any other exception (user reduce op, decode failure…)
      is wrapped as ``MPIException(ERR_OTHER)`` with the original
      preserved as ``__cause__``;
    * under ``ERRORS_ARE_FATAL``, the job is poisoned with the failure as
      the abort's root cause and the abort is raised here.
    """
    if isinstance(exc, AbortException):
        return
    if errhandler_of() == H.ERRORS_RETURN:
        if isinstance(exc, MPIException):
            return
        raise MPIException(
            ERR_OTHER,
            f"{type(exc).__name__} raised in user code during "
            f"{getattr(fn, '__name__', 'an MPI call')}: {exc}") from exc
    rt = current_runtime()
    if isinstance(exc, MPIException):
        # a peer-failure error is the *peer's* fault: poison with the dead
        # rank as origin so the executor folds victims' aborts back to it
        origin = getattr(exc, "failed_rank", -1)
        if origin < 0:
            origin = rt.world_rank
        raise rt.universe.poison(origin, exc.error_code, cause=exc)
    raise rt.universe.poison(rt.world_rank, 1, cause=exc)


def guarded_call(errhandler_of: Callable[[], int], fn, *args):
    """Run ``fn(*args)`` routing any escaping exception through the
    error handler ``errhandler_of()`` names (:func:`route_error`)."""
    try:
        return fn(*args)
    except Exception as exc:
        route_error(exc, errhandler_of, fn)
        raise


class Errhandler:
    """Opaque error-handler handle."""

    __slots__ = ("_handle", "_name")

    def __init__(self, handle: int, name: str):
        self._handle = handle
        self._name = name

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Errhandler({self._name})"


ERRORS_ARE_FATAL = Errhandler(H.ERRORS_ARE_FATAL, "MPI.ERRORS_ARE_FATAL")
ERRORS_RETURN = Errhandler(H.ERRORS_RETURN, "MPI.ERRORS_RETURN")
