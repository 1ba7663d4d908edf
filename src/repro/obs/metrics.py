"""Unified metrics: named thread-safe counters and gauges.

The runtime grew its instrumentation ad hoc — the wire protocol kept a
``wire_stats`` dict under a private lock, the ADI-ablation transport a
bare ``packets_staged`` integer.  This module replaces both with one
vocabulary:

* :class:`CounterGroup` — a named family of monotonic counters sharing
  one lock (``inc(eager_frames=1, tx_bytes=n)`` is a single atomic
  batch, the exact discipline ``wire_stats`` already used).  Read a
  group through :meth:`CounterGroup.snapshot` — one consistent cut, a
  plain dict.
* :class:`Gauge` — a last-value-wins measurement (queue depths, ring
  occupancy).
* :class:`MetricsRegistry` — the process-wide index.  Instance-scoped
  groups (one per transport) register under their base name with a
  unique suffix and are held by weak reference, so short-lived test
  universes don't accumulate; :meth:`MetricsRegistry.aggregate` folds
  all live groups of one base name into a single total, which is what
  a metrics scrape or a bench report wants.

The profiling tools in 1999's MPI ecosystem (mpiP, Vampir's counter
streams) kept exactly this split: cheap always-on counters, separate
from the event trace.  Counters here are always on — one lock-protected
integer add per batch — while event tracing (:mod:`repro.obs.trace`)
is off unless requested.
"""

from __future__ import annotations

import itertools
import threading
import weakref
from typing import Iterable


class Gauge:
    """A last-value-wins measurement."""

    __slots__ = ("name", "_value", "_lock")

    def __init__(self, name: str, value: float = 0):
        self.name = name
        self._value = value
        self._lock = threading.Lock()

    def set(self, value) -> None:
        with self._lock:
            self._value = value

    @property
    def value(self):
        with self._lock:
            return self._value

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Gauge({self.name}={self.value!r})"


class CounterGroup:
    """A named family of monotonic counters under one lock.

    ``keys`` pre-declares counters (so a snapshot shows zeros rather
    than missing keys); unknown keys passed to :meth:`inc` are created
    on first use.  :meth:`snapshot` takes the lock for a consistent cut.
    """

    def __init__(self, name: str, keys: Iterable[str] = (),
                 registry: "MetricsRegistry | _NoRegistry | None" = None):
        self.name = name
        self._lock = threading.Lock()
        self._values: dict[str, int] = {k: 0 for k in keys}
        reg = REGISTRY if registry is None else registry
        if reg is not None:
            reg.register_group(self)

    def inc(self, **deltas: int) -> None:
        """Atomically add every ``key=delta`` in one critical section."""
        with self._lock:
            values = self._values
            for key, d in deltas.items():
                values[key] = values.get(key, 0) + d

    def add(self, key: str, delta: int = 1) -> None:
        with self._lock:
            self._values[key] = self._values.get(key, 0) + delta

    def snapshot(self) -> dict[str, int]:
        with self._lock:
            return dict(self._values)

    def reset(self) -> None:
        with self._lock:
            for key in self._values:
                self._values[key] = 0

    def __repr__(self) -> str:
        return f"CounterGroup({self.name}, {self.snapshot()!r})"


class MetricsRegistry:
    """Process-wide index of counter groups, counters and gauges."""

    def __init__(self):
        self._lock = threading.Lock()
        self._groups: dict[str, weakref.ref] = {}
        self._seq = itertools.count(1)
        self._scalars: dict[str, CounterGroup] = {}
        self._gauges: dict[str, Gauge] = {}

    # -- groups -----------------------------------------------------------
    def register_group(self, group: CounterGroup) -> str:
        """Index ``group`` under a unique ``base#N`` name (weakly held)."""
        with self._lock:
            key = f"{group.name}#{next(self._seq)}"
            self._groups[key] = weakref.ref(group)
            return key

    def groups(self, base: str | None = None) -> dict[str, CounterGroup]:
        """Live groups, optionally restricted to one base name."""
        out: dict[str, CounterGroup] = {}
        with self._lock:
            for key, ref in list(self._groups.items()):
                group = ref()
                if group is None:
                    del self._groups[key]
                elif base is None or group.name == base:
                    out[key] = group
        return out

    def aggregate(self, base: str) -> dict[str, int]:
        """Sum every live group of one base name into a single total."""
        total: dict[str, int] = {}
        for group in self.groups(base).values():
            for key, value in group.snapshot().items():
                total[key] = total.get(key, 0) + value
        return total

    # -- standalone counters / gauges -------------------------------------
    def counter(self, name: str) -> CounterGroup:
        """Get-or-create a single standalone counter group by exact name."""
        with self._lock:
            group = self._scalars.get(name)
            if group is None:
                group = CounterGroup(name, registry=_NO_REGISTRY)
                self._scalars[name] = group
            return group

    def gauge(self, name: str) -> Gauge:
        with self._lock:
            g = self._gauges.get(name)
            if g is None:
                g = self._gauges[name] = Gauge(name)
            return g

    def snapshot(self) -> dict:
        """One consistent-enough cut of everything live, for export."""
        out = {
            "groups": {key: g.snapshot()
                       for key, g in self.groups().items()},
            "counters": {name: g.snapshot()
                         for name, g in self._scalars.items()},
            "gauges": {name: g.value for name, g in self._gauges.items()},
        }
        return out


class _NoRegistry:
    """Sentinel registry that indexes nothing (internal groups)."""

    def register_group(self, group: "CounterGroup") -> str:
        return group.name


_NO_REGISTRY = _NoRegistry()

#: the process-wide default registry
REGISTRY = MetricsRegistry()
