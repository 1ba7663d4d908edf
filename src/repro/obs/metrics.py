"""Unified metrics: named thread-safe counters and gauges.

The runtime grew its instrumentation ad hoc — the wire protocol kept a
``wire_stats`` dict under a private lock, the ADI-ablation transport a
bare ``packets_staged`` integer.  This module replaces both with one
vocabulary:

* :class:`CounterGroup` — a named family of monotonic counters, one
  lock-free shard per bumping thread (a hot path bumps
  ``group.shard.counts[key]`` in place).  :meth:`CounterGroup.snapshot`
  sums the shards into a plain dict.
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
from the event trace.  Counters here are always on — a dict add in the
bumping thread's own shard — while event tracing (:mod:`repro.obs.trace`)
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


class _Shard(threading.local):
    """One thread's ``counts`` of a group, enrolled on its first touch;
    the shards of threads that have ended fold into the ``None`` one."""

    def __init__(self, keys, shards: dict, lock):
        self.counts = dict.fromkeys(keys, 0)
        with lock:
            for thread in [t for t in shards if t and not t.is_alive()]:
                retired = shards[None]
                for key, n in shards.pop(thread).items():
                    retired[key] = retired.get(key, 0) + n
            shards[threading.current_thread()] = self.counts


class CounterGroup:
    """A named family of monotonic counters, one shard per thread.

    ``keys`` pre-declares counters (so a snapshot shows zeros, and a hot
    path may bump a shard in place); others are created on first use.
    Only its thread writes a shard, so no bump takes a lock;
    :meth:`snapshot` sums the shards.
    """

    def __init__(self, name: str, keys: Iterable[str] = (),
                 registry: "MetricsRegistry | _NoRegistry | None" = None):
        self.name = name
        self._lock = threading.Lock()
        self._shards: dict = {None: {}}
        #: this thread's shard: ``shard.counts[key] += n`` for a declared key
        self.shard = _Shard(tuple(keys), self._shards, self._lock)
        reg = REGISTRY if registry is None else registry
        if reg is not None:
            reg.register_group(self)

    def inc(self, **deltas: int) -> None:
        """Add every ``key=delta`` to this thread's shard."""
        values = self.shard.counts
        for key, d in deltas.items():
            values[key] = values.get(key, 0) + d

    def add(self, key: str, delta: int = 1) -> None:
        values = self.shard.counts
        values[key] = values.get(key, 0) + delta

    def snapshot(self) -> dict[str, int]:
        total: dict[str, int] = {}
        with self._lock:
            for counts in list(self._shards.values()):
                for key, n in counts.copy().items():
                    total[key] = total.get(key, 0) + n
        return total

    def reset(self) -> None:
        """Zero every shard in place (meant for a quiet group: a bump in
        flight in another thread may survive it)."""
        with self._lock:
            for counts in self._shards.values():
                counts.update(dict.fromkeys(counts, 0))

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
