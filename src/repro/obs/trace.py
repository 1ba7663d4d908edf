"""Per-rank event trace recorder: ring buffers of spans and instants.

The recorder answers "what did the runtime *do*" the way 1999's MPI
trace tools (Vampir, Paragraph, mpiP's callsite traces) did: each rank
accumulates timestamped events — spans with a duration, point instants
— that an exporter later turns into one timeline per rank
(:mod:`repro.obs.export` writes Chrome trace-event JSON for Perfetto).

Design constraints, in order:

1. **Near-zero overhead when disabled.**  Every instrumentation site
   guards on ``TRACE.enabled`` — one attribute read on a module-level
   singleton — before touching anything else.  No clock read, no tuple
   build, no lock.
2. **Bounded memory.**  Each rank's events live in a fixed-capacity
   ring (:data:`DEFAULT_RING_CAPACITY`); overflow drops the *oldest*
   events and counts the drops, so a trace that wrapped says so
   instead of lying by omission.
3. **Lock-light.**  One small lock per rank ring, held only to append
   one tuple.  Rank threads, transport pumps and the rendezvous writer
   all record into the rank they act for, so contention is between at
   most a handful of threads per ring.
4. **Deterministic timestamps under a virtual clock.**  The recorder
   reads time through whatever :class:`~repro.util.clock.Clock` the
   live :class:`~repro.runtime.engine.Universe` uses (the universe
   binds it at construction).  Modeled runs on a ``VirtualClock``
   therefore emit identical traces on every run — byte-identical after
   the deterministic merge in :mod:`repro.obs.export`.

Enabling: set ``REPRO_TRACE=<dir>`` before the job (the executors dump
per-rank files and a merged ``trace.json`` into ``<dir>`` at the end of
a run; process-backend workers inherit the variable and ship their
events home over the control plane), or call :meth:`TraceRecorder.enable`
for in-memory capture (``dir=None``) that tests inspect via
:meth:`TraceRecorder.snapshot`.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from typing import Optional

from repro import config

#: per-rank ring capacity (events)
DEFAULT_RING_CAPACITY = 65536

#: rank used for events recorded outside any rank context
NO_RANK = -1


class _Ring:
    """Fixed-capacity event ring for one rank, oldest-dropped."""

    __slots__ = ("lock", "events", "capacity", "dropped")

    def __init__(self, capacity: int):
        self.lock = threading.Lock()
        self.capacity = capacity
        self.events: deque = deque(maxlen=capacity)
        self.dropped = 0

    def append(self, event: tuple) -> None:
        with self.lock:
            if len(self.events) == self.capacity:
                self.dropped += 1   # deque(maxlen) evicts the oldest
            self.events.append(event)


class TraceRecorder:
    """Process-wide recorder: one event ring per locally-hosted rank.

    Events are stored as tuples ``(ph, ts, dur, name, cat, thread, args)``
    with ``ph`` the Chrome phase (``"X"`` complete span, ``"i"``
    instant), timestamps in clock seconds, ``thread`` the recording
    thread's name (stable across runs — the runtime names every thread
    it starts) and ``args`` a small dict of primitives or None.
    """

    def __init__(self, capacity: int | None = None):
        self.enabled = False
        self.dir: Optional[str] = None
        self.capacity = capacity or DEFAULT_RING_CAPACITY
        self._rings: dict[int, _Ring] = {}
        self._rings_lock = threading.Lock()
        self._now = time.perf_counter
        self._clock = None

    # -- lifecycle ---------------------------------------------------------
    def enable(self, dir: str | None = None,
               capacity: int | None = None) -> None:
        """Start recording; ``dir`` is where executors dump traces.

        ``dir=None`` keeps whatever directory was configured before
        (or in-memory capture if none ever was).
        """
        if dir is not None:
            self.dir = str(dir)
        if capacity is not None:
            self.capacity = int(capacity)
        self.enabled = True

    def disable(self) -> None:
        """Stop recording; buffered events stay until :meth:`reset`."""
        self.enabled = False

    def reset(self) -> None:
        """Drop all buffered events and drop counts."""
        with self._rings_lock:
            self._rings.clear()

    # -- clock binding (universe Clock; see util/clock.py) -----------------
    def use_clock(self, clock) -> None:
        """Read timestamps through ``clock`` (a ``Clock``) from now on."""
        self._clock = clock
        self._now = clock.now

    def release_clock(self, clock) -> None:
        """Restore the default timer if ``clock`` is the bound one."""
        if self._clock is clock:
            self._clock = None
            self._now = time.perf_counter

    def now(self) -> float:
        """Current trace time in seconds (the bound clock's ``now``)."""
        return self._now()

    # -- recording ---------------------------------------------------------
    def _ring(self, rank: int) -> _Ring:
        ring = self._rings.get(rank)
        if ring is None:
            with self._rings_lock:
                ring = self._rings.get(rank)
                if ring is None:
                    ring = self._rings[rank] = _Ring(self.capacity)
        return ring

    def instant(self, rank: int, name: str, cat: str = "",
                args: dict | None = None) -> None:
        """Record a point event at the current time."""
        t = self._now()
        self._ring(rank).append(
            ("i", t, 0.0, name, cat, threading.current_thread().name,
             args))

    def span(self, rank: int, name: str, cat: str, t0: float,
             args: dict | None = None) -> None:
        """Record a complete span from ``t0`` (a prior :meth:`now`) to now."""
        t1 = self._now()
        self._ring(rank).append(
            ("X", t0, max(0.0, t1 - t0), name, cat,
             threading.current_thread().name, args))

    def span_at(self, rank: int, name: str, cat: str, t0: float,
                t1: float, args: dict | None = None) -> None:
        """Record a complete span with both endpoints already taken."""
        self._ring(rank).append(
            ("X", t0, max(0.0, t1 - t0), name, cat,
             threading.current_thread().name, args))

    # -- introspection / export -------------------------------------------
    def snapshot(self, reset: bool = False) -> dict[int, dict]:
        """``{rank: {"events": [...], "dropped": n}}`` for all rings.

        Event tuples come out as lists (JSON- and pickle-friendly); with
        ``reset=True`` the rings are atomically drained.
        """
        out: dict[int, dict] = {}
        with self._rings_lock:
            rings = dict(self._rings)
            if reset:
                self._rings = {}
        for rank, ring in rings.items():
            with ring.lock:
                events = [list(e) for e in ring.events]
                dropped = ring.dropped
            out[rank] = {"events": events, "dropped": dropped}
        return out

    def dropped(self, rank: int) -> int:
        ring = self._rings.get(rank)
        return ring.dropped if ring is not None else 0


#: the process-wide recorder every instrumentation site guards on
TRACE = TraceRecorder()

if config.trace_dir():
    TRACE.enable(config.trace_dir())
