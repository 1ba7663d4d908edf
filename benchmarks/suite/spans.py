"""Harness-side spans: time every MPI call a rank body makes.

The program under test is not touched: a rank body asks :meth:`Spans.wrap`
for a proxy of its communicator (or of ``Request``), and every capitalised
method called through the proxy is recorded as ``(name, start, end, op)``
where ``op`` is the operation the body said it was working on
(``spans.op = i``).  Rows stay in memory; :func:`chrome_trace` turns the
rows of all ranks into Chrome trace-event JSON when the run ends.
"""

from __future__ import annotations

import time

import numpy as np

_pc = time.perf_counter


class Spans:
    """Span log of one rank.  With ``enabled=False`` :meth:`wrap` hands
    the target back unchanged, so an untraced body pays nothing."""

    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.rows: list[tuple] = []
        #: operation id the body is working on (-1: outside the timed loop)
        self.op = -1
        #: perf_counter -> wall clock, so ranks in different processes
        #: line up on one timeline
        self._to_wall = time.time() - _pc()

    def wrap(self, target):
        return _Traced(target, self) if self.enabled else target

    def set_last_op(self, op: int) -> None:
        """Re-parent the newest span (a wildcard receive learns which
        operation it belonged to only when it returns)."""
        if self.rows:
            name, t0, t1, _ = self.rows[-1]
            self.rows[-1] = (name, t0, t1, op)

    def add_ops(self, starts, durations) -> None:
        """Record the body's own per-operation intervals as ``op`` spans."""
        if self.enabled:
            self.rows.extend(("op", float(a), float(a + d), i)
                             for i, (a, d) in enumerate(zip(starts,
                                                            durations)))

    def pack(self) -> dict | None:
        """Columnar copy of the rows (small to pickle home from a rank)."""
        if not self.enabled:
            return None
        names = sorted({r[0] for r in self.rows})
        index = {n: i for i, n in enumerate(names)}
        return {
            "names": names,
            "name": np.array([index[r[0]] for r in self.rows], np.int16),
            "start": np.array([r[1] for r in self.rows]) + self._to_wall,
            "end": np.array([r[2] for r in self.rows]) + self._to_wall,
            "op": np.array([r[3] for r in self.rows], np.int64),
        }


class _Traced:
    """Proxy recording one span per capitalised (MPI) method call."""

    def __init__(self, target, spans: Spans):
        self._target = target
        self._spans = spans

    def __getattr__(self, name):
        attr = getattr(self._target, name)
        if not (name[0].isupper() and callable(attr)):
            return attr
        spans, rows = self._spans, self._spans.rows

        def traced(*args):
            t0 = _pc()
            try:
                out = attr(*args)
            finally:
                rows.append((name, t0, _pc(), spans.op))
            # communicators made by a traced one are traced too
            return _Traced(out, spans) if hasattr(out, "Sendrecv") else out

        setattr(self, name, traced)   # next lookup skips __getattr__
        return traced


def durations_us(packed: dict, name: str, timed_only: bool = True):
    """Durations (us) of one rank's spans called ``name``."""
    if packed is None or name not in packed["names"]:
        return np.empty(0)
    keep = packed["name"] == packed["names"].index(name)
    if timed_only:
        keep &= packed["op"] >= 0
    return (packed["end"][keep] - packed["start"][keep]) * 1e6


def chrome_trace(jobs: list[dict]) -> dict:
    """Chrome trace-event JSON of traced jobs.

    ``jobs``: ``[{"workload": str, "ranks": [packed, ...]}, ...]``; each
    job becomes one process lane, each rank one thread lane, and every
    event carries its parent operation id in ``args.op``.
    """
    events = []
    origin = min((float(p["start"].min()) for job in jobs
                  for p in job["ranks"] if p is not None and len(p["start"])),
                 default=0.0)
    for pid, job in enumerate(jobs):
        events.append({"name": "process_name", "ph": "M", "pid": pid,
                       "args": {"name": job["workload"]}})
        for rank, p in enumerate(job["ranks"]):
            if p is None:
                continue
            names = p["names"]
            ts = (p["start"] - origin) * 1e6
            dur = (p["end"] - p["start"]) * 1e6
            for n, t, d, op in zip(p["name"].tolist(), ts.tolist(),
                                   dur.tolist(), p["op"].tolist()):
                events.append({"name": names[n], "cat": job["workload"],
                               "ph": "X", "ts": round(t, 3),
                               "dur": round(d, 3), "pid": pid, "tid": rank,
                               "args": {"op": op}})
    return {"traceEvents": events, "displayTimeUnit": "ns"}
