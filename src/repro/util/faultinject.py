"""Deterministic fault injection: kill one rank at a named fault point.

``REPRO_FAULT=<site>:<rank>[:<hit>][:<action>]`` arms the harness: the
``hit``-th time rank ``rank`` passes fault point ``site`` (1-based,
default 1), it dies.  Everything is counted per process (the process
backend) or per :func:`reset` epoch (the thread backends), so a given
spec kills at exactly one, reproducible point of the execution.

Instrumented sites (each a single :func:`maybe_fail` call on a hot
protocol edge, compiled out to one dict lookup when unarmed):

* ``bootstrap`` — worker process startup, before it dials the launcher
  (process backend only): exercises the launcher's rendezvous fail-fast;
* ``rendezvous.cts`` — a sender that just shipped an RTS and will never
  answer the CTS (the receiver is left matched to a dead sender);
* ``coll.round`` — between rounds of an executing collective schedule;
* ``shm.ring`` — mid-frame on a same-host pair's bulk lane: the header
  is on the socket, the body is not in the shared-memory ring (process
  backend; the ring itself produces no EOF, so the survivor's pump,
  sitting in the lane read, has to notice the socket's);
* ``finalize`` — after the target returned, before the Finalize barrier.

Two kill actions:

* ``kill`` (default) — the rank dies instantly: ``os._exit`` in a
  worker process (hard kill: no finally blocks, no report, control
  connection EOF), :class:`SimulatedRankDeath` in a rank thread (routed
  by the executor to the failure plane, *not* to the abort plane — a
  simulated death must look like a peer loss, not like a clean error);
* ``stop`` — the worker process SIGSTOPs itself: sockets stay open, so
  there is no EOF to notice and only the heartbeat plane can detect it
  (thread backends treat ``stop`` as ``kill``).
"""

from __future__ import annotations

import os
import signal
import threading

__all__ = ["SimulatedRankDeath", "maybe_fail", "reset", "set_hard_kill"]

#: exit code of a hard-killed worker, distinguishable from crash-by-1
HARD_EXIT_CODE = 86

_SITES = ("bootstrap", "rendezvous.cts", "coll.round", "shm.ring",
          "finalize")
_ACTIONS = ("kill", "stop")

_lock = threading.Lock()
_counts: dict[tuple[str, int], int] = {}
_cached: tuple[str | None, tuple | None] = (None, None)
#: process-backend workers flip this: die for real instead of raising
_hard_kill = False


class SimulatedRankDeath(BaseException):
    """An injected rank death in a thread backend.

    A ``BaseException`` on purpose: user-level ``except Exception``
    handlers in the target must not be able to catch their own injected
    death, exactly as they could not catch ``SIGKILL``.
    """


def set_hard_kill(hard: bool = True) -> None:
    """Process-backend workers call this: fault points ``os._exit``."""
    global _hard_kill
    _hard_kill = bool(hard)


def reset() -> None:
    """Start a fresh hit-count epoch (thread executors call this per
    job, so spec hit counts are per-run, not per-process)."""
    with _lock:
        _counts.clear()


def _spec():
    """Parse ``REPRO_FAULT``, cached on the raw value (tests monkeypatch
    the environment between jobs)."""
    global _cached
    raw = os.environ.get("REPRO_FAULT") or None
    if raw == _cached[0]:
        return _cached[1]
    parsed = None
    if raw:
        parts = raw.split(":")
        try:
            site = parts[0]
            rank = int(parts[1])
            hit = int(parts[2]) if len(parts) > 2 and parts[2] else 1
            action = parts[3] if len(parts) > 3 else "kill"
            if site not in _SITES:
                raise ValueError(f"unknown fault site {site!r} "
                                 f"(sites: {', '.join(_SITES)})")
            if action not in _ACTIONS:
                raise ValueError(f"unknown fault action {action!r}")
            parsed = (site, rank, max(1, hit), action)
        except (IndexError, ValueError) as exc:
            raise ValueError(
                f"REPRO_FAULT={raw!r} is not '<site>:<rank>[:<hit>]"
                f"[:<action>]': {exc}") from None
    _cached = (raw, parsed)
    return parsed


def maybe_fail(site: str, rank: int, own_thread_only: bool = False) -> None:
    """Fault point: die here iff the armed spec names (site, rank) and
    this is the spec'd hit.

    ``own_thread_only`` guards sites that other ranks' threads can reach
    (a collective cascade advances a peer's schedule from the delivery
    thread): in the thread backends the injected death must land on the
    dying rank's *own* thread or the wrong rank would unwind.  Hard-kill
    workers are single-rank processes, so every thread counts there.
    """
    spec = _spec()
    if spec is None:
        return
    f_site, f_rank, f_hit, action = spec
    if site != f_site or rank != f_rank:
        return
    if own_thread_only and not _hard_kill:
        from repro.runtime.engine import try_current_runtime
        rt = try_current_runtime()
        if rt is None or rt.world_rank != rank:
            return
    with _lock:
        _counts[site, rank] = n = _counts.get((site, rank), 0) + 1
    if n != f_hit:
        return
    if _hard_kill:
        if action == "stop":
            # play dead without dying: control + mesh sockets stay open,
            # heartbeats stop — only the heartbeat plane sees this
            os.kill(os.getpid(), signal.SIGSTOP)
            return
        os._exit(HARD_EXIT_CODE)   # noqa: SLF001 - the whole point
    raise SimulatedRankDeath(
        f"injected fault: rank {rank} died at {site} (hit {f_hit})")
