"""Per-rank mailbox: MPI matching semantics.

Each rank owns one mailbox.  Transports push envelopes into
:meth:`Mailbox.deliver`; receives are posted with :meth:`Mailbox.post_recv`.
The two queues implement the standard's matching rules:

* a message matches a posted receive when contexts are equal, tags are equal
  or the receive posted ``ANY_TAG``, and sources are equal or the receive
  posted ``ANY_SOURCE``;
* arrivals match posted receives in *post order*; receives match the
  unexpected queue in *arrival order* — together with FIFO transports this
  yields MPI's non-overtaking guarantee;
* matching a synchronous-mode envelope fires its ``notify_matched`` hook
  (``Ssend`` completes no earlier than the matching receive starts).

Matching is **hash-indexed**, not scanned: both queues are bucketed on the
exact key ``(context, source, tag)``, with wildcard receives
(``ANY_SOURCE``/``ANY_TAG``) in a separate fallback list.  Every posted
receive carries a post-order stamp and every arrival an arrival-order
stamp, so the indexed lookup picks exactly the receive/message a linear
scan would have — order semantics are preserved while the common case
(deep queues of fully-specified traffic, e.g. flooded collectives) drops
from O(queue) to O(1) per match.

Rendezvous: a wire transport delivers a ``KIND_RTS`` envelope for a large
message.  It matches exactly like data (it carries the matching key and
announced size), but consuming it triggers the transport's
``rndv_accept`` hook — clear-to-send handshake plus payload streaming
into the posted buffer, or a single-copy read of the payload out of the
sender's memory — instead of landing bytes that aren't here yet.  The
hook runs after the mailbox lock is released: it may copy megabytes.

Failure plane: a queued receive carries its failure scope on the request
and subscribes to nothing — :meth:`Mailbox.on_failure_event` walks the
posted queues.  One that leaves them still pending (matched to an RTS)
subscribes at that moment, in :meth:`Mailbox._consume`.
"""

from __future__ import annotations

import threading
from collections import deque
from typing import Callable, Optional

from repro.obs.metrics import CounterGroup
from repro.obs.trace import TRACE
from repro.runtime.consts import ANY_SOURCE, ANY_TAG
from repro.runtime.envelope import (Envelope, KIND_ABORT, KIND_ACK,
                                    KIND_DATA, KIND_PEERFAIL, KIND_REVOKE,
                                    KIND_RTS, KIND_SANITIZE, MODE_READY,
                                    decode_peerfail_env, decode_revoke_env)
from repro.runtime.requests import Gate, RequestImpl

#: process-wide match counters (all mailboxes): how often the receive
#: was already posted when the message arrived vs how often the message
#: dwelled in the unexpected queue vs the pump's zero-copy direct claim
MAILBOX_METRICS = CounterGroup("mailbox", (
    "matched_posted", "matched_unexpected", "matched_direct"))


#: this thread's match counts (bumped in place: no call, no lock)
_MATCHES = MAILBOX_METRICS.shard


def _trace_match(rank: int, path: str, since: float, env: Envelope) -> None:
    """Trace one mailbox match.  The dwell is how long the *later* party
    waited for the earlier one (``since`` its arrival): post-to-arrival
    time on the posted path, arrival-to-post (unexpected queue) time on
    the unexpected path."""
    if TRACE.enabled:
        dwell = TRACE.now() - since
        TRACE.instant(rank, "mailbox.match", "mailbox",
                      {"path": path, "dwell_us": round(dwell * 1e6, 3),
                       "src": env.src, "tag": env.tag,
                       "rts": env.kind == KIND_RTS})

#: land callback: consume the envelope into the user buffer; returns
#: (count_elements, error_code, error_message)
LandFn = Callable[[Envelope], tuple[int, int, str]]

#: optional hook giving the transport the writable byte views of the
#: posted receive window — one per layout run, a single view for
#: contiguous layouts (zero-copy direct landing); None = stage + land
RecvViewsFn = Callable[[Envelope], Optional[list]]


class PostedRecv:
    """A receive waiting in the posted queue."""

    __slots__ = ("req", "source_world", "tag", "context", "land",
                 "recv_views", "order", "t_post", "wildcard")

    def __init__(self, req: RequestImpl, source_world: int, tag: int,
                 context: int, land: LandFn,
                 recv_views: RecvViewsFn | None = None):
        self.req = req
        self.source_world = source_world
        self.tag = tag
        self.context = context
        self.land = land
        self.recv_views = recv_views
        self.order = 0
        #: trace stamp: when this receive entered the posted queue
        self.t_post = 0.0
        self.wildcard = source_world == ANY_SOURCE or tag == ANY_TAG

    def matches(self, env: Envelope) -> bool:
        if env.context != self.context:
            return False
        if self.tag != ANY_TAG and env.tag != self.tag:
            return False
        if self.source_world != ANY_SOURCE and env.src != self.source_world:
            return False
        return True


class Mailbox:
    """Matching queues plus sync-ACK routing for one rank."""

    def __init__(self, rank: int, universe):
        self.rank = rank
        self.universe = universe
        self._lock = threading.Lock()
        self._arrival = threading.Condition(self._lock)
        #: unexpected messages, bucketed by exact key; values are
        #: (arrival_stamp, env) deques in arrival order
        self._unexpected: dict[tuple, deque] = {}
        #: fully-specified posted receives, bucketed by exact key,
        #: post order within each bucket
        self._posted_exact: dict[tuple, deque] = {}
        #: wildcard posted receives in post order
        self._posted_wild: list[PostedRecv] = []
        self._post_stamp = 0
        self._arrival_stamp = 0
        #: seq -> callback, for synchronous sends over wire transports
        self._pending_acks: dict[int, Callable[[], None]] = {}
        self.ready_mode_errors: list[Envelope] = []
        #: the rank thread's one sleep for a blocking receive
        self.gate = Gate()

    # -- intake (transport callback; runs in sender / pump threads) ----------
    def deliver(self, env: Envelope) -> None:
        kind = env.kind
        if kind != KIND_DATA and kind != KIND_RTS:
            # everything that is not matched
            if kind == KIND_ACK:
                self._route_ack(env)
            elif kind == KIND_ABORT:
                self.universe.note_abort_delivery(env)
                self.on_abort()
            elif kind == KIND_SANITIZE:
                san = getattr(self.universe, "sanitizer", None)
                if san is not None:
                    san.on_deliver(env)
            elif kind == KIND_PEERFAIL:
                rank, cause = decode_peerfail_env(env)
                self.universe.note_peer_failure(rank, cause)
            elif kind == KIND_REVOKE:
                origin, contexts, members = decode_revoke_env(env)
                self.universe.note_revoked(contexts, members, origin)
            else:
                raise AssertionError(f"undeliverable envelope kind {kind}")
            return
        key = (env.context, env.src, env.tag)
        with self._lock:
            posted = self._select_posted(env, key)
            if posted is not None:
                self._remove_posted(posted, key)
            else:
                if env.mode == MODE_READY:
                    # erroneous program per MPI 1.1: ready send with no
                    # posted receive; record it for diagnosis and still
                    # deliver (the standard leaves behaviour undefined)
                    self.ready_mode_errors.append(env)
                # claim before queueing: a borrowed payload views the
                # transport's pooled recv buffer, recycled on return
                env.claim()
                self._arrival_stamp += 1
                dq = self._unexpected.get(key)
                if dq is None:
                    dq = self._unexpected[key] = deque()
                dq.append((self._arrival_stamp, env,
                           TRACE.now() if TRACE.enabled else 0.0))
                self._arrival.notify_all()
                return
        # arrival met a receive posted earlier: the dwell is how long
        # the receive sat posted before its message showed up
        _MATCHES.counts["matched_posted"] += 1
        if TRACE.enabled:
            _trace_match(self.rank, "posted", posted.t_post, env)
        self._consume(posted, env)

    def _route_ack(self, env: Envelope) -> None:
        with self._lock:
            fn = self._pending_acks.pop(env.seq, None)
        if fn is not None:
            fn()

    def register_ack(self, seq: int, fn: Callable[[], None]) -> None:
        with self._lock:
            self._pending_acks[seq] = fn

    def _select_posted(self, env: Envelope,
                       key: tuple) -> Optional[PostedRecv]:
        """Earliest-posted receive matching an arrival (whose exact key
        is ``key``), not yet removed (lock held)."""
        dq = self._posted_exact.get(key)
        exact = dq[0] if dq else None
        wild = None
        for p in self._posted_wild:
            if p.matches(env):
                wild = p
                break
        if exact is None:
            return wild
        if wild is None or exact.order < wild.order:
            return exact
        return wild

    def _remove_posted(self, posted: PostedRecv, key: tuple) -> None:
        """Take out what :meth:`_select_posted` just chose for ``key``:
        an exact receive is the head of that key's bucket (lock held)."""
        if posted.wildcard:
            self._posted_wild.remove(posted)
        else:
            dq = self._posted_exact[key]
            dq.popleft()
            if not dq:
                del self._posted_exact[key]

    # -- pump-side direct landing (zero staging copies) ----------------------
    def claim_direct_recv(self, env: Envelope):
        """Commit an incoming frame to a posted receive before its body
        is read off the wire.

        ``env`` is header-only (the pump peeked the frame header); its
        ``rndv_dtype``/``rndv_nbytes`` announce the payload.  When the
        earliest matching posted receive accepts direct byte views —
        a contiguous window *or* a derived layout described by the
        type's run IR — the receive is *consumed* here: the pump then
        streams the payload straight into the user buffer's runs and
        completes the request, exactly as a match-then-land would have,
        minus the staging copy and the scatter.  Returns
        ``(posted, views)`` or None (normal path).

        Invariant: whoever takes a pending receive out of the queues
        owns failing it — the failure walk no longer finds it.  The
        caller holds it only across the body read and fails it there if
        the stream dies (``WireTransport._read_frame``);
        :meth:`_consume` makes an RTS-matched one subscribe.
        """
        key = (env.context, env.src, env.tag)
        with self._lock:
            posted = self._select_posted(env, key)
            if posted is None or posted.recv_views is None:
                return None
            views = posted.recv_views(env)
            if views is None:
                return None
            self._remove_posted(posted, key)
        # consumed by the pump pre-body: by construction the receive was
        # posted before the frame arrived (a posted-path match)
        _MATCHES.counts["matched_direct"] += 1
        if TRACE.enabled:
            _trace_match(self.rank, "direct", posted.t_post, env)
        return posted, views

    # -- receives --------------------------------------------------------------
    def post_recv(self, req: RequestImpl, source_world: int, tag: int,
                  context: int, land: LandFn,
                  recv_views: RecvViewsFn | None = None) -> None:
        posted = PostedRecv(req, source_world, tag, context, land,
                            recv_views)
        with self._lock:
            key, dq = self._find_unexpected(posted)
            if dq is None:
                self._post_stamp += 1
                posted.order = self._post_stamp
                if TRACE.enabled:
                    posted.t_post = TRACE.now()
                if posted.wildcard:
                    self._posted_wild.append(posted)
                else:
                    key = (context, source_world, tag)
                    dq = self._posted_exact.get(key)
                    if dq is None:
                        dq = self._posted_exact[key] = deque()
                    dq.append(posted)
                return
            _, env, t_arrive = dq.popleft()     # the earliest arrival
            if not dq:
                del self._unexpected[key]
        # the receive found its message waiting: the dwell is how long
        # the message sat in the unexpected queue
        _MATCHES.counts["matched_unexpected"] += 1
        if TRACE.enabled:
            _trace_match(self.rank, "unexpected", t_arrive, env)
        self._consume(posted, env)

    def _find_unexpected(self, posted: PostedRecv):
        """(key, bucket) of the earliest matching arrival, or (None, None).

        Fully-specified receives hit their bucket directly; wildcards
        compare the head stamps of the (few) matching buckets — within a
        bucket arrivals are FIFO, so heads are sufficient.
        """
        if not posted.wildcard:
            key = (posted.context, posted.source_world, posted.tag)
            dq = self._unexpected.get(key)
            return (key, dq) if dq else (None, None)
        best_key, best_dq, best_stamp = None, None, None
        for key, dq in self._unexpected.items():
            if posted.matches(dq[0][1]):
                stamp = dq[0][0]
                if best_stamp is None or stamp < best_stamp:
                    best_key, best_dq, best_stamp = key, dq, stamp
        return best_key, best_dq

    def _consume(self, posted: PostedRecv, env: Envelope) -> None:
        """Land a matched envelope and complete the receive request."""
        if env.kind == KIND_RTS:
            # rendezvous: no payload yet — hand the posted receive to the
            # transport (CTS + streamed landing complete the request).
            # It leaves the queues still pending, where the failure walk
            # no longer finds it: from here on it listens for itself
            req = posted.req
            if req._ft_peers or req._ft_contexts:
                req.watch_failures()
            env.rndv_accept(posted)
            return
        count, error, message = posted.land(env)
        env.notify_matched()
        posted.req.complete(source_world=env.src, tag=env.tag,
                            count_elements=count, error=error,
                            error_message=message)

    def cancel_recv(self, req: RequestImpl) -> bool:
        """Remove a posted receive; True if it was still pending."""
        if not self.discard_posted(req):
            return False
        req.complete_cancelled()
        return True

    def discard_posted(self, req: RequestImpl) -> bool:
        """Silently remove ``req``'s posted receive (failure plane /
        cancellation); True if it was still in a queue."""
        with self._lock:
            for key, dq in self._posted_exact.items():
                for p in dq:
                    if p.req is req:
                        dq.remove(p)
                        if not dq:
                            del self._posted_exact[key]
                        return True
            for p in self._posted_wild:
                if p.req is req:
                    self._posted_wild.remove(p)
                    return True
        return False

    # -- probe -------------------------------------------------------------------
    def iprobe(self, source_world: int, tag: int,
               context: int) -> Optional[Envelope]:
        """Non-consuming match against the unexpected queue."""
        probe = PostedRecv(None, source_world, tag, context, None)
        with self._lock:
            _, dq = self._find_unexpected(probe)
            return dq[0][1] if dq else None

    def probe(self, source_world: int, tag: int, context: int) -> Envelope:
        """Blocking probe: wait for a matching arrival, do not consume it.

        Event-driven: :meth:`on_abort` notifies the arrival condition under
        the same lock, so a job abort wakes the probe immediately (no poll
        tick, no lost wakeup).
        """
        probe = PostedRecv(None, source_world, tag, context, None)
        with self._arrival:
            while True:
                self.universe.check_abort()
                self.universe.check_revoked(context)
                if source_world >= 0 \
                        and source_world in self.universe.failed_ranks:
                    raise self.universe.peer_failure(source_world)
                _, dq = self._find_unexpected(probe)
                if dq is not None:
                    return dq[0][1]
                self._arrival.wait()

    def on_abort(self) -> None:
        """Wake every thread blocked on this mailbox (job poisoned)."""
        with self._arrival:
            self._arrival.notify_all()
        self.gate.wake()

    def on_failure_event(self) -> None:
        """A peer died or a context was revoked: wake blocked probes so
        they re-check the failure plane, and fail every queued receive
        whose recorded scope the event touches — the posted queues index
        them all, which is why a receive subscribes to nothing.

        Snapshot under the lock, fail outside it: failing re-enters this
        lock (:meth:`discard_posted`) and runs completion listeners, in
        whichever thread reported the failure — usually a pump.
        """
        with self._arrival:
            self._arrival.notify_all()
            queued = [p.req for dq in self._posted_exact.values()
                      for p in dq]
            queued += [p.req for p in self._posted_wild]
        for req in queued:
            req.fail_if_affected()

    # -- introspection -------------------------------------------------------------
    def has_posted_match(self, env: Envelope) -> bool:
        """Would ``env`` match a posted receive right now? (ready mode)."""
        with self._lock:
            if self._posted_exact.get((env.context, env.src, env.tag)):
                return True
            return any(p.matches(env) for p in self._posted_wild)

    def pending_counts(self) -> tuple[int, int]:
        with self._lock:
            unexpected = sum(len(d) for d in self._unexpected.values())
            posted = sum(len(d) for d in self._posted_exact.values()) \
                + len(self._posted_wild)
            return unexpected, posted

    def pending_summary(self, limit: int = 8) -> list[str]:
        """Short human-readable lines describing queued state (sanitizer
        deadlock diagnostics and the Finalize audit)."""
        out: list[str] = []
        with self._lock:
            for (ctx, src, tag), dq in self._unexpected.items():
                out.append(f"unreceived msg src={src} tag={tag} "
                           f"ctx={ctx} x{len(dq)}")
            for (ctx, src, tag), dq in self._posted_exact.items():
                out.append(f"posted recv src={src} tag={tag} "
                           f"ctx={ctx} x{len(dq)}")
            for p in self._posted_wild:
                src = "any" if p.source_world == ANY_SOURCE \
                    else p.source_world
                tag = "any" if p.tag == ANY_TAG else p.tag
                out.append(f"posted recv src={src} tag={tag} "
                           f"ctx={p.context}")
        if len(out) > limit:
            out = out[:limit] + [f"... {len(out) - limit} more"]
        return out
