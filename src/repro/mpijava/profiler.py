"""PMPI-style profiling interface for the mpiJava binding.

Real MPI implementations expose every ``MPI_*`` entry point a second time
as ``PMPI_*`` so a profiling library can interpose: redefine ``MPI_Send``,
do its bookkeeping, call ``PMPI_Send``.  The binding's analogue hooks the
single choke point every :class:`~repro.mpijava.comm.Comm` member already
passes through (``Comm._guard``): an attached :class:`CommProfiler` sees
each call *by its mpiJava name* ("Send", "Isend", "Bcast", ...) with its
arguments, and decides when — and whether — to invoke the real operation.

>>> from repro.mpijava import MPI
>>> prof = CountingProfiler()
>>> MPI.attach_profiler(prof)
>>> ... # MPI.COMM_WORLD.Send(...), etc.
>>> MPI.detach_profiler(prof)
>>> prof.counts()["Send"]

Profilers stack (last attached runs outermost), exactly like layered PMPI
wrapper libraries.  The disabled fast path is one module-level truthiness
check per call — no allocation, no lock.

``MPI.Pcontrol`` drives the standard levels against the *attached*
profilers: 0 mutes them, 1 re-enables, 2 flushes/resets their state.
"""

from __future__ import annotations

import threading

from repro.jni.spec import CALLS
from repro.obs.trace import TRACE

__all__ = ["CommProfiler", "TracingProfiler", "CountingProfiler",
           "attach", "detach", "dispatch"]

#: attached profiler stack; copy-on-write so the per-call read is a plain
#: list truthiness/iteration with no lock (attach/detach are rare)
_active: list["CommProfiler"] = []
_attach_lock = threading.Lock()


class CommProfiler:
    """Base class for PMPI-style interposers.

    Subclasses override :meth:`intercept`; ``invoke()`` runs the next
    layer (another profiler, or the real guarded operation) and returns
    its result.  Not calling ``invoke`` suppresses the operation —
    useful for fault-injection shims — and raising from ``intercept``
    propagates to the caller like any binding error.
    """

    #: Pcontrol(0) mutes a profiler without detaching it
    muted = False

    def intercept(self, comm, name: str, args: tuple, invoke):
        """Interpose on one ``Comm`` call; default is a transparent pass."""
        return invoke()

    def reset(self) -> None:
        """Drop accumulated state (``MPI.Pcontrol(2)``)."""


class TracingProfiler(CommProfiler):
    """Emit one trace span per intercepted call onto the caller's lane.

    Spans land in the :data:`~repro.obs.trace.TRACE` recorder under the
    ``"mpi"`` category, so a merged Chrome trace shows the user-facing
    API timeline above the runtime's internal wire/coll events.
    """

    def intercept(self, comm, name, args, invoke):
        if not TRACE.enabled:
            return invoke()
        from repro.runtime.engine import current_runtime
        rank = current_runtime().world_rank
        t0 = TRACE.now()
        try:
            return invoke()
        finally:
            TRACE.span(rank, f"mpi.{name}", "mpi", t0, {})


class CountingProfiler(CommProfiler):
    """Count calls per entry-point name (an ``mpiP``-style tally)."""

    def __init__(self):
        self._lock = threading.Lock()
        self._counts: dict[str, int] = {}

    def intercept(self, comm, name, args, invoke):
        with self._lock:
            self._counts[name] = self._counts.get(name, 0) + 1
        return invoke()

    def counts(self) -> dict[str, int]:
        with self._lock:
            return dict(self._counts)

    def reset(self) -> None:
        with self._lock:
            self._counts.clear()


def attach(profiler: CommProfiler) -> CommProfiler:
    """Attach a profiler (outermost); returns it for chaining."""
    global _active
    if not isinstance(profiler, CommProfiler):
        raise TypeError(f"expected a CommProfiler, got "
                        f"{type(profiler).__name__}")
    with _attach_lock:
        if profiler not in _active:
            _active = _active + [profiler]
    return profiler


def detach(profiler: CommProfiler) -> None:
    """Detach a profiler; detaching one not attached is a no-op."""
    global _active
    with _attach_lock:
        _active = [p for p in _active if p is not profiler]


def pcontrol(level: int) -> None:
    """Apply an ``MPI.Pcontrol`` level to the attached profilers."""
    if level == 0:
        for p in _active:
            p.muted = True
    elif level == 1:
        for p in _active:
            p.muted = False
    elif level == 2:
        for p in _active:
            p.reset()


def dispatch(comm, fn, args: tuple, invoke):
    """Run one guarded call through the attached profiler stack.

    Called from ``Comm._guard`` only when :data:`_active` is non-empty.
    The stack composes right-to-left: the most recently attached
    profiler sees the call first, like the outermost PMPI wrapper
    library on a link line.
    """
    name = CALLS[fn.__name__[4:]].oo_name      # mpi_send -> "Send"
    call = invoke
    for p in _active:       # reversed nesting: later attach = outer layer
        if p.muted:
            continue
        call = (lambda prof, inner: lambda: prof.intercept(
            comm, name, args, inner))(p, call)
    return call()
