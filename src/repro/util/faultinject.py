"""Deterministic fault injection: kill one rank at a named fault point.

``REPRO_FAULT=<site>:<rank>[:<hit>][:<action>]`` arms the harness: the
``hit``-th time rank ``rank`` passes fault point ``site`` (1-based,
default 1), it dies.  Everything is counted per process (the process
backend) or per :func:`reset` epoch (the thread backends), so a given
spec kills at exactly one, reproducible point of the execution.
Several specs may be armed at once, comma-separated
(``cma.probe:1::deny,shm.ring:1``).

Instrumented sites (each a single :func:`maybe_fail` call on a hot
protocol edge, compiled out to one dict lookup when unarmed):

* ``bootstrap`` — a rank's first act of its own after its fork, once it
  has closed the fds that are not its own and set its death signal
  (process backend only): exercises the launcher's fail-fast on a rank
  that dies before it is up;
* ``rendezvous.cts`` — a sender that just shipped an RTS and will never
  answer the CTS (the receiver is left matched to a dead sender — and,
  on a pair that reads payloads in place, holding a cookie into memory
  that is gone);
* ``rendezvous.done`` — a receiver that has just read a rendezvous
  payload out of the sender's memory and dies before saying so (the
  sender is left parked, as on a lost CTS);
* ``coll.round`` — between rounds of an executing collective schedule;
* ``shm.ring`` — mid-frame on a same-host pair's bulk lane: the header
  is on the socket, the body is not in the shared-memory ring (process
  backend; the ring itself produces no EOF, so the survivor's pump,
  sitting in the lane read, has to notice the socket's);
* ``finalize`` — after the target returned, before the Finalize barrier.

One *soft* site, which degrades a rank instead of killing it (action
``deny``, asked about with :func:`denied`; no hit count):

* ``cma.probe`` — every capability probe that rank runs
  (:func:`repro.transport.cma.probe`) reports "not permitted", as under
  Yama ``ptrace_scope=2`` or a seccomp filter: what the rank *sends*
  takes the ring / socket path, what it *receives* with a cookie it
  answers with a plain CTS, and every other pair keeps the single-copy
  get — one job covers all three, which is how the ring path stays
  under test without a knob.

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

from repro import config

__all__ = ["SimulatedRankDeath", "denied", "maybe_fail", "reset",
           "set_hard_kill"]

#: exit code of a hard-killed worker, distinguishable from crash-by-1
HARD_EXIT_CODE = 86

_SITES = ("bootstrap", "rendezvous.cts", "rendezvous.done", "coll.round",
          "shm.ring", "finalize")
_ACTIONS = ("kill", "stop")
#: sites that degrade instead of killing; their one action is ``deny``
_SOFT_SITES = ("cma.probe",)

_lock = threading.Lock()
_counts: dict[tuple[str, int], int] = {}
_cached: tuple[str | None, tuple] = (None, ())
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


def _specs() -> tuple:
    """Parse ``REPRO_FAULT`` into ``(site, rank, hit, action)`` specs,
    cached on the raw value (tests monkeypatch the environment between
    jobs)."""
    global _cached
    raw = config.fault()
    if raw == _cached[0]:
        return _cached[1]
    parsed = []
    for one in (raw or "").split(","):
        if not one:
            continue
        parts = one.split(":")
        try:
            site = parts[0]
            rank = int(parts[1])
            hit = int(parts[2]) if len(parts) > 2 and parts[2] else 1
            soft = site in _SOFT_SITES
            action = parts[3] if len(parts) > 3 \
                else "deny" if soft else "kill"
            if site not in _SITES + _SOFT_SITES:
                raise ValueError(
                    f"unknown fault site {site!r} "
                    f"(sites: {', '.join(_SITES + _SOFT_SITES)})")
            if action not in (("deny",) if soft else _ACTIONS):
                raise ValueError(f"unknown fault action {action!r} "
                                 f"for site {site!r}")
            parsed.append((site, rank, max(1, hit), action))
        except (IndexError, ValueError) as exc:
            raise ValueError(
                f"REPRO_FAULT={raw!r} is not a comma-separated list of "
                f"'<site>:<rank>[:<hit>][:<action>]': {exc}") from None
    _cached = (raw, tuple(parsed))
    return _cached[1]


def denied(site: str, rank: int) -> bool:
    """Soft fault point: is ``rank`` armed to be refused at ``site``?"""
    return any(s == site and r == rank for s, r, _, _ in _specs())


def maybe_fail(site: str, rank: int, own_thread_only: bool = False) -> None:
    """Fault point: die here iff an armed spec names (site, rank) and
    this is the spec'd hit.

    ``own_thread_only`` guards sites that other ranks' threads can reach
    (a collective cascade advances a peer's schedule from the delivery
    thread): in the thread backends the injected death must land on the
    dying rank's *own* thread or the wrong rank would unwind.  Hard-kill
    workers are single-rank processes, so every thread counts there.
    """
    for f_site, f_rank, f_hit, action in _specs():
        if site == f_site and rank == f_rank and action != "deny":
            break
    else:
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
