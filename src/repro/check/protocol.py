"""Cross-rank matching of symbolic per-rank traces.

Takes the :class:`~repro.check.symexec.RankTrace` list produced by the
per-rank symbolic executor and proves (or refutes) that the program's
communication protocol matches before it ever runs:

* when every trace is **exact** — no data-dependent control flow, no
  wildcards, no unresolved endpoints — the matcher *simulates* the MPI
  progress rules (eager sends complete immediately, rendezvous and
  synchronous sends block for the matching receive, collectives complete
  per their root semantics) and classifies any stuck state: an
  ``unmatched-send``/``unmatched-recv`` whose counterpart is statically
  absent, a ``send-deadlock`` of head-to-head rendezvous sends, or a
  general ``deadlock`` cycle;
* otherwise it degrades to **may-analysis**: count-insensitive orphan
  detection where all participants are still exact, and only per-rank
  local rules (``buffer-race``, ``lost-request``, ``wildcard-recv``,
  ``unfreed-datatype``) where they are not.  Lost precision can hide a
  bug; it never invents one.

Rule catalog lives in :data:`RULES`; every finding reuses the PR 7
:mod:`repro.check.findings` severity / ``file:line`` / suppression
machinery.
"""

from __future__ import annotations

from typing import Any, Optional

from repro.jni.spec import collectives
from repro.runtime.consts import ANY_SOURCE, ANY_TAG, PROC_NULL
from repro.check.findings import ERROR, INFO, WARNING, Finding
from repro.check.symexec import (
    CollEv, Ev, ProbeEv, RankTrace, RecvEv, SendEv, WaitEv, WriteEv,
)

__all__ = ["RULES", "check_traces"]

#: rule name -> (severity shown in docs, one-line description)
RULES: dict[str, tuple[str, str]] = {
    "unmatched-send": (ERROR, "a send whose matching receive is "
                              "statically absent (or the destination rank "
                              "does not exist)"),
    "unmatched-recv": (ERROR, "a receive whose matching send is "
                              "statically absent"),
    "send-deadlock": (ERROR, "head-to-head blocking sends above the eager "
                             "limit: every stuck rank is in a rendezvous "
                             "send, none can post the receive"),
    "deadlock": (ERROR, "the simulated schedule wedges: a cycle of ranks "
                        "each waiting on another"),
    "coll-mismatch": (ERROR, "ranks disagree on the collective sequence "
                             "over a communicator (order, root, datatype "
                             "signature or reduction op)"),
    "type-mismatch": (WARNING, "a matched send/receive pair disagrees on "
                               "datatype base or the send outsizes the "
                               "receive buffer"),
    "buffer-race": (ERROR, "a buffer is written between an Isend/Irecv "
                           "and the Wait/Test that completes it"),
    "lost-request": (WARNING, "a nonblocking request is never completed "
                              "by any Wait/Test"),
    "wildcard-recv": (INFO, "an ANY_SOURCE receive makes message order "
                            "nondeterministic; exact matching is skipped"),
    "unfreed-datatype": (INFO, "a committed derived datatype is never "
                               "freed"),
}

_WAIT_KINDS = {"wait", "waitall", "waitany", "waitsome"}
_TEST_KINDS = {"test", "testall", "testany", "testsome"}

#: collective completion classes, from the rows of the MPI surface; any
#: other collective event — the rest of the data collectives and the
#: communicator-management ones the models record (Dup, Split, Sub,
#: Free, ...) — completes when every participant has arrived
_ROOT_WAITS_ALL = collectives("root_waits_all")
_ALL_WAIT_ROOT = collectives("all_wait_root")


def _conc(v: Any) -> Optional[int]:
    return v if isinstance(v, int) else None


def _dedup(findings: list[Finding]) -> list[Finding]:
    seen: set[tuple] = set()
    out = []
    for f in findings:
        key = (f.rule, f.path, f.line)
        if key in seen:
            continue
        seen.add(key)
        out.append(f)
    return out


def check_traces(traces: list[RankTrace],
                 eager_limit: int = 1024 * 1024) -> list[Finding]:
    """Run every cross-rank and per-rank rule; return deduped findings."""
    findings: list[Finding] = []
    for t in traces:
        findings.extend(_local_rules(t))
    findings.extend(_collective_rules(traces))
    if _deterministic(traces):
        findings.extend(_Simulator(traces, eager_limit).run())
    else:
        findings.extend(_may_match(traces))
    return _dedup(findings)


# ---------------------------------------------------------------------------
# per-rank local rules
# ---------------------------------------------------------------------------

def _local_rules(t: RankTrace) -> list[Finding]:
    out: list[Finding] = []
    for ev in t.events:
        if isinstance(ev, RecvEv) and _conc(ev.src) == ANY_SOURCE:
            tagtxt = "ANY_TAG" if _conc(ev.tag) == ANY_TAG else "a tag"
            out.append(Finding(
                "wildcard-recv", INFO, ev.path, ev.line,
                f"rank {t.rank} receives from ANY_SOURCE with {tagtxt}: "
                f"message order is nondeterministic and exact matching "
                f"is disabled for this context"))
    for req in t.requests:
        ev = req.event
        if not req.observed and not ev.conditional and t.exact:
            what = _ev_name(ev)
            out.append(Finding(
                "lost-request", WARNING, ev.path, ev.line,
                f"rank {t.rank}: request from {what} is never completed "
                f"by any Wait/Test; its completion (and buffer "
                f"ownership) is undefined"))
    for dt in t.datatypes:
        if dt.derived and dt.committed and not dt.freed \
                and dt.site is not None:
            path, line = dt.site
            out.append(Finding(
                "unfreed-datatype", INFO, path, line,
                f"rank {t.rank}: derived datatype {dt.name} is committed "
                f"but never freed"))
    out.extend(_race_rules(t))
    return out


def _ev_name(ev: Ev) -> str:
    if isinstance(ev, SendEv):
        return f"Isend at {ev.location}"
    if isinstance(ev, RecvEv):
        return f"Irecv at {ev.location}"
    if isinstance(ev, CollEv):
        return f"I{ev.name.lower()} at {ev.location}"
    return f"operation at {ev.location}"


def _spans_overlap(a: Optional[tuple], b: Optional[tuple]) -> Optional[bool]:
    """True/False when both spans are known; None when either is not."""
    if a is None or b is None:
        return None
    return a[0] < b[1] and b[0] < a[1]


def _race_rules(t: RankTrace) -> list[Finding]:
    """Writes into a buffer while a request that pinned it is in flight
    (the static twin of the PR 7 send-checksum sanitizer check)."""
    out: list[Finding] = []
    # completion index per rid: first Wait/Test event naming it
    completed_at: dict[int, int] = {}
    for ev in t.events:
        if isinstance(ev, WaitEv) and (ev.kind in _WAIT_KINDS
                                       or ev.kind in _TEST_KINDS):
            for rid in ev.rids:
                completed_at.setdefault(rid, ev.idx)
    intervals = []          # (start idx, end idx, bid, span, req ev, mode)
    for req in t.requests:
        ev = req.event
        end = completed_at.get(req.rid, len(t.events))
        if isinstance(ev, (SendEv, RecvEv)):
            if ev.bid is not None:
                mode = "send" if isinstance(ev, SendEv) else "recv"
                intervals.append((ev.idx, end, ev.bid, ev.span, ev, mode))
        elif isinstance(ev, CollEv):
            for bid, span, _m in ev.bufs:
                intervals.append((ev.idx, end, bid, span, ev, ev.name))
    if not intervals:
        return out
    for ev in t.events:
        if not isinstance(ev, WriteEv):
            continue
        for start, end, bid, span, rev, mode in intervals:
            if ev.bid != bid or not (start < ev.idx < end):
                continue
            overlap = _spans_overlap(ev.span, span)
            if overlap is False:
                continue
            certain = overlap is True and not ev.conditional \
                and not rev.conditional
            sev = ERROR if certain else WARNING
            qual = "" if overlap is True else "may "
            out.append(Finding(
                "buffer-race", sev, ev.path, ev.line,
                f"rank {t.rank}: buffer written here {qual}overlaps the "
                f"in-flight {_ev_name(rev)} ({mode}); mutation before "
                f"the completing Wait/Test corrupts the transfer"))
    return out


# ---------------------------------------------------------------------------
# collective sequence agreement
# ---------------------------------------------------------------------------

def _coll_key(ev: CollEv) -> tuple:
    return (ev.name, ev.root if isinstance(ev.root, int) else None,
            ev.sig, ev.op, ev.blocking)


def _coll_desc(ev: CollEv) -> str:
    bits = [ev.name if ev.blocking else f"I{ev.name.lower()}"]
    if isinstance(ev.root, int):
        bits.append(f"root={ev.root}")
    if ev.op:
        bits.append(f"op={ev.op}")
    if ev.sig and ev.sig != ("v",):
        bits.append(f"sig={ev.sig}")
    return " ".join(bits)


def _collective_rules(traces: list[RankTrace]) -> list[Finding]:
    """Rank-divergent collective sequences per context (static twin of
    the runtime CommProfiler consistency check)."""
    out: list[Finding] = []
    by_ctx: dict[str, dict[int, list[CollEv]]] = {}
    skip: set[str] = set()
    for t in traces:
        skip |= t.inexact_ctxs
        for ev in t.events:
            if isinstance(ev, CollEv):
                if ev.conditional or not t.exact:
                    skip.add(ev.ctx)
                by_ctx.setdefault(ev.ctx, {}).setdefault(
                    t.rank, []).append(ev)
    for ctx, per_rank in sorted(by_ctx.items()):
        if ctx in skip or len(per_rank) < 2:
            continue
        ranks = sorted(per_rank)
        ref_rank = ranks[0]
        ref = per_rank[ref_rank]
        for rank in ranks[1:]:
            seq = per_rank[rank]
            for k in range(max(len(ref), len(seq))):
                if k >= len(ref) or k >= len(seq):
                    longer, lr = (ref, ref_rank) if len(ref) > len(seq) \
                        else (seq, rank)
                    shorter_rank = rank if lr == ref_rank else ref_rank
                    ev = longer[k]
                    out.append(Finding(
                        "coll-mismatch", ERROR, ev.path, ev.line,
                        f"collective #{k + 1} on {ctx}: rank {lr} calls "
                        f"{_coll_desc(ev)} but rank {shorter_rank} has "
                        f"already finished its collective sequence "
                        f"({len(longer)} vs "
                        f"{min(len(ref), len(seq))} calls)"))
                    break
                a, b = ref[k], seq[k]
                if _coll_key(a) != _coll_key(b):
                    out.append(Finding(
                        "coll-mismatch", ERROR, b.path, b.line,
                        f"collective #{k + 1} on {ctx} diverges across "
                        f"ranks: rank {rank} calls {_coll_desc(b)} but "
                        f"rank {ref_rank} calls {_coll_desc(a)} at "
                        f"{a.location}"))
                    break
    return out


# ---------------------------------------------------------------------------
# determinism test + may matching fallback
# ---------------------------------------------------------------------------

def _deterministic(traces: list[RankTrace]) -> bool:
    for t in traces:
        if not t.exact or t.inexact_ctxs:
            return False
        for ev in t.events:
            if isinstance(ev, ProbeEv):
                return False
            if isinstance(ev, (SendEv, RecvEv, CollEv, WaitEv)) \
                    and ev.conditional:
                return False
            if isinstance(ev, SendEv):
                if _conc(ev.dst) is None or _conc(ev.tag) is None:
                    return False
            elif isinstance(ev, RecvEv):
                src, tag = _conc(ev.src), _conc(ev.tag)
                if src is None or tag is None:
                    return False
                if src == ANY_SOURCE or tag == ANY_TAG:
                    return False
            elif isinstance(ev, CollEv):
                if ev.root is not None and _conc(ev.root) is None:
                    return False
    return True


def _tag_compatible(stag: Any, rtag: Any) -> bool:
    st, rt = _conc(stag), _conc(rtag)
    if rt == ANY_TAG or st is None or rt is None:
        return True
    return st == rt


def _may_match(traces: list[RankTrace]) -> list[Finding]:
    """Count-insensitive orphan detection for nondeterministic programs.

    Only runs over contexts where every participating trace is exact —
    an inexact trace may simply have stopped early, so the absence of a
    counterpart there proves nothing.
    """
    out: list[Finding] = []
    nprocs = len(traces)
    by_ctx: dict[str, dict[int, list[Ev]]] = {}
    skip: set[str] = set()
    for t in traces:
        skip |= t.inexact_ctxs
        for ev in t.events:
            if isinstance(ev, (SendEv, RecvEv)):
                if not t.exact:
                    skip.add(ev.ctx)
                by_ctx.setdefault(ev.ctx, {}).setdefault(
                    t.rank, []).append(ev)
    for t in traces:
        if not t.exact:
            # a truncated trace hides counterparts in *every* context
            # it touches and, transitively, for peers that talk to it;
            # world-wide we cannot localize that, so skip all contexts
            # this rank participates in
            for ev in t.events:
                if isinstance(ev, (SendEv, RecvEv, CollEv)):
                    skip.add(ev.ctx)
    for ctx, per_rank in sorted(by_ctx.items()):
        if ctx in skip:
            continue
        sends: list[tuple[int, SendEv]] = []
        recvs: list[tuple[int, RecvEv]] = []
        for rank, evs in per_rank.items():
            for ev in evs:
                if isinstance(ev, SendEv):
                    sends.append((rank, ev))
                else:
                    recvs.append((rank, ev))
        for rank, ev in sends:
            if ev.conditional:
                continue
            dst = _conc(ev.dst)
            if dst is None or dst == PROC_NULL:
                continue
            if not 0 <= dst < nprocs:
                out.append(Finding(
                    "unmatched-send", ERROR, ev.path, ev.line,
                    f"rank {rank} sends to rank {dst}, which does not "
                    f"exist in a {nprocs}-process job"))
                continue
            ok = any(r == dst
                     and (_conc(rv.src) in (rank, ANY_SOURCE, None))
                     and _tag_compatible(ev.tag, rv.tag)
                     for r, rv in recvs)
            if not ok:
                out.append(Finding(
                    "unmatched-send", ERROR, ev.path, ev.line,
                    f"rank {rank} sends to rank {dst} "
                    f"(tag {ev.tag}) on {ctx} but rank {dst} never "
                    f"posts a matching receive"))
        for rank, ev in recvs:
            if ev.conditional:
                continue
            src = _conc(ev.src)
            if src is None or src in (ANY_SOURCE, PROC_NULL):
                continue
            if not 0 <= src < nprocs:
                out.append(Finding(
                    "unmatched-recv", ERROR, ev.path, ev.line,
                    f"rank {rank} receives from rank {src}, which does "
                    f"not exist in a {nprocs}-process job"))
                continue
            ok = any(r == src
                     and _conc(sv.dst) in (rank, None)
                     and _tag_compatible(sv.tag, ev.tag)
                     for r, sv in sends)
            if not ok:
                out.append(Finding(
                    "unmatched-recv", ERROR, ev.path, ev.line,
                    f"rank {rank} waits for a message from rank {src} "
                    f"(tag {ev.tag}) on {ctx} but rank {src} never "
                    f"sends one"))
    return out


# ---------------------------------------------------------------------------
# exact schedule simulation
# ---------------------------------------------------------------------------

class _Simulator:
    """Deterministic replay of the MPI progress rules over exact traces."""

    def __init__(self, traces: list[RankTrace], eager_limit: int):
        self.traces = traces
        self.nprocs = len(traces)
        self.eager = eager_limit
        #: completed request ids
        self.rid_done: set[int] = set()
        # schedulable program per rank (comm events only)
        self.prog: list[list[Ev]] = []
        for t in traces:
            evs = []
            for ev in t.events:
                if isinstance(ev, (SendEv, RecvEv, CollEv)):
                    if self._proc_null(ev):
                        self._insta_complete(ev)
                        continue
                    evs.append(ev)
                elif isinstance(ev, WaitEv):
                    evs.append(ev)
            self.prog.append(evs)
        self.pc = [0] * self.nprocs
        self.done: list[set[int]] = [set() for _ in range(self.nprocs)]
        #: messages sent and not yet received: (ctx, src, dst) -> FIFO
        self.chan: dict[tuple, list[SendEv]] = {}
        #: posted nonblocking recvs not yet matched: (ctx, dst) -> FIFO
        self.posted: dict[tuple, list[tuple[int, RecvEv]]] = {}
        #: outstanding rendezvous isends: rid -> (rank, ev)
        self.pending_isend: dict[int, tuple[int, SendEv]] = {}
        #: nonblocking collective requests: rid -> (ctx, instance, ev)
        self.pending_icoll: dict[int, tuple[str, int, CollEv]] = {}
        #: per (ctx, instance) set of ranks that issued it
        self.issued: dict[tuple, set[int]] = {}
        #: per (rank, ctx) count of collectives entered
        self.inst: dict[tuple, int] = {}
        #: (rank, event idx) pairs already registered with a collective
        self.joined: set[tuple] = set()
        self.participants = self._participants()
        self.findings: list[Finding] = []
        self.matched_pairs: list[tuple[SendEv, RecvEv, int, int]] = []

    # -- setup helpers ------------------------------------------------------
    def _proc_null(self, ev: Ev) -> bool:
        if isinstance(ev, SendEv):
            return _conc(ev.dst) == PROC_NULL
        if isinstance(ev, RecvEv):
            return _conc(ev.src) == PROC_NULL
        return False

    def _insta_complete(self, ev: Ev) -> None:
        rid = getattr(ev, "rid", None)
        if rid is not None:
            self.rid_done.add(rid)

    def _participants(self) -> dict[str, set[int]]:
        parts: dict[str, set[int]] = {"world": set(range(self.nprocs))}
        for t in self.traces:
            for ev in t.events:
                if isinstance(ev, (SendEv, RecvEv, CollEv)):
                    parts.setdefault(ev.ctx, set()).add(t.rank)
        return parts

    def _is_rendezvous(self, ev: SendEv) -> bool:
        if ev.mode == "ssend":
            return True
        if ev.mode in ("bsend", "rsend"):
            return False
        return ev.nbytes is not None and ev.nbytes >= self.eager

    # -- main loop ----------------------------------------------------------
    def run(self) -> list[Finding]:
        progress = True
        while progress:
            progress = False
            for rank in range(self.nprocs):
                while self._step(rank):
                    progress = True
        self._classify_stuck()
        self._leftovers()
        self._type_mismatches()
        return self.findings

    def _step(self, rank: int) -> bool:
        prog = self.prog[rank]
        pc = self.pc[rank]
        if pc >= len(prog):
            return False
        ev = prog[pc]
        if ev.idx in self.done[rank]:
            self.pc[rank] += 1
            return True
        if isinstance(ev, SendEv):
            return self._step_send(rank, ev)
        if isinstance(ev, RecvEv):
            return self._step_recv(rank, ev)
        if isinstance(ev, CollEv):
            return self._step_coll(rank, ev)
        if isinstance(ev, WaitEv):
            return self._step_wait(rank, ev)
        self.pc[rank] += 1
        return True

    def _advance(self, rank: int, ev: Ev) -> bool:
        self.done[rank].add(ev.idx)
        self.pc[rank] += 1
        return True

    # -- point-to-point steps ----------------------------------------------
    def _deposit(self, rank: int, ev: SendEv) -> None:
        """An eager (or matched rendezvous) message enters the channel,
        unless a posted nonblocking recv is already waiting for it."""
        dst = _conc(ev.dst)
        entry = self.posted.get((ev.ctx, dst))
        if entry:
            for i, (rrank, rev) in enumerate(entry):
                if _conc(rev.src) == rank and _tag_compatible(ev.tag,
                                                              rev.tag):
                    entry.pop(i)
                    self.rid_done.add(rev.rid)
                    self.matched_pairs.append((ev, rev, rank, rrank))
                    return
        self.chan.setdefault((ev.ctx, rank, dst), []).append(ev)

    def _step_send(self, rank: int, ev: SendEv) -> bool:
        if not ev.blocking:
            if self._is_rendezvous(ev):
                self.pending_isend[ev.rid] = (rank, ev)
                self._try_match_isend(ev.rid)
            else:
                self.rid_done.add(ev.rid)
                self._deposit(rank, ev)
            return self._advance(rank, ev)
        if not self._is_rendezvous(ev):
            self._deposit(rank, ev)
            return self._advance(rank, ev)
        # blocking rendezvous: needs a receive to be reachable now
        if self._match_rendezvous(rank, ev):
            return self._advance(rank, ev)
        return False

    def _match_rendezvous(self, rank: int, ev: SendEv) -> bool:
        """Find a receive that can complete this rendezvous send."""
        dst = _conc(ev.dst)
        entry = self.posted.get((ev.ctx, dst))
        if entry:
            for i, (rrank, rev) in enumerate(entry):
                if _conc(rev.src) == rank and _tag_compatible(ev.tag,
                                                              rev.tag):
                    entry.pop(i)
                    self.rid_done.add(rev.rid)
                    self.matched_pairs.append((ev, rev, rank, rrank))
                    return True
        # a peer blocked in a matching blocking Recv (or the recv half
        # of its current Sendrecv)
        rev = self._blocked_recv_offer(dst, rank, ev)
        if rev is not None:
            self.done[dst].add(rev.idx)
            self.matched_pairs.append((ev, rev, rank, dst))
            return True
        return False

    def _try_match_isend(self, rid: int) -> None:
        rank, ev = self.pending_isend[rid]
        if self._match_rendezvous(rank, ev):
            self.rid_done.add(rid)
            del self.pending_isend[rid]

    def _blocked_recv_offer(self, rank: int, src: int,
                            sev: SendEv) -> Optional[RecvEv]:
        """A blocking recv `rank` is currently stuck at (or the recv
        half of a Sendrecv it is stuck at) matching ``sev``."""
        prog = self.prog[rank]
        pc = self.pc[rank]
        if pc >= len(prog):
            return None
        cand = prog[pc]
        offers = []
        if isinstance(cand, RecvEv) and cand.blocking \
                and cand.idx not in self.done[rank]:
            offers.append(cand)
        if isinstance(cand, SendEv) and cand.pair is not None \
                and pc + 1 < len(prog):
            nxt = prog[pc + 1]
            if isinstance(nxt, RecvEv) and nxt.pair == cand.pair \
                    and nxt.idx not in self.done[rank]:
                offers.append(nxt)
        for rev in offers:
            if _conc(rev.src) == src and rev.ctx == sev.ctx \
                    and _tag_compatible(sev.tag, rev.tag):
                # respect channel FIFO: an older undelivered message on
                # this channel must match first
                if self.chan.get((sev.ctx, src, rank)):
                    continue
                return rev
        return None

    def _step_recv(self, rank: int, ev: RecvEv) -> bool:
        src = _conc(ev.src)
        if not ev.blocking:
            self.posted.setdefault((ev.ctx, rank), []).append((rank, ev))
            self._drain_posted(ev.ctx, rank)
            for rid in list(self.pending_isend):
                self._try_match_isend(rid)
            return self._advance(rank, ev)
        # blocking: deliverable messages first — eager messages already
        # in the channel and in-flight rendezvous Isends, merged by
        # posting order so the per-(src, dst) FIFO holds — then a peer
        # stuck in a matching blocking rendezvous send
        fifo = self.chan.get((ev.ctx, src, rank), [])
        chan_hit: Optional[tuple[int, int]] = None       # (idx, pos)
        for i, sev in enumerate(fifo):
            if _tag_compatible(sev.tag, ev.tag):
                chan_hit = (sev.idx, i)
                break                    # fifo is in posting order
        isend_hit: Optional[tuple[int, int]] = None      # (idx, rid)
        for rid, (srank, sev) in self.pending_isend.items():
            if srank == src and sev.ctx == ev.ctx \
                    and _conc(sev.dst) == rank \
                    and _tag_compatible(sev.tag, ev.tag) \
                    and (isend_hit is None or sev.idx < isend_hit[0]):
                isend_hit = (sev.idx, rid)
        if chan_hit is not None and (isend_hit is None
                                     or chan_hit[0] < isend_hit[0]):
            sev = fifo.pop(chan_hit[1])
            self.matched_pairs.append((sev, ev, src, rank))
            return self._advance(rank, ev)
        if isend_hit is not None:
            rid = isend_hit[1]
            _srank, sev = self.pending_isend.pop(rid)
            self.rid_done.add(rid)
            self.matched_pairs.append((sev, ev, src, rank))
            return self._advance(rank, ev)
        sev = self._blocked_rendezvous_offer(src, rank, ev)
        if sev is not None:
            self.done[src].add(sev.idx)
            self.matched_pairs.append((sev, ev, src, rank))
            return self._advance(rank, ev)
        return False

    def _blocked_rendezvous_offer(self, rank: int, dst: int,
                                  rev: RecvEv) -> Optional[SendEv]:
        """A blocking rendezvous send `rank` is stuck at (or the send
        half of its current Sendrecv) that matches ``rev``."""
        prog = self.prog[rank]
        pc = self.pc[rank]
        if pc >= len(prog):
            return None
        cand = prog[pc]
        if isinstance(cand, SendEv) and cand.blocking \
                and cand.idx not in self.done[rank] \
                and self._is_rendezvous(cand) \
                and _conc(cand.dst) == dst and cand.ctx == rev.ctx \
                and _tag_compatible(cand.tag, rev.tag):
            return cand
        return None

    def _drain_posted(self, ctx: str, rank: int) -> None:
        """Match queued messages against newly-posted receives."""
        entry = self.posted.get((ctx, rank), [])
        i = 0
        while i < len(entry):
            rrank, rev = entry[i]
            src = _conc(rev.src)
            fifo = self.chan.get((ctx, src, rank), [])
            hit = None
            for j, sev in enumerate(fifo):
                if _tag_compatible(sev.tag, rev.tag):
                    hit = j
                    break
            if hit is not None:
                sev = fifo.pop(hit)
                entry.pop(i)
                self.rid_done.add(rev.rid)
                self.matched_pairs.append((sev, rev, src, rank))
                continue
            i += 1

    # -- collectives --------------------------------------------------------
    def _step_coll(self, rank: int, ev: CollEv) -> bool:
        key = (rank, ev.idx)
        if key not in self.joined:
            k = self.inst.get((rank, ev.ctx), 0)
            self.inst[(rank, ev.ctx)] = k + 1
            self.issued.setdefault((ev.ctx, k), set()).add(rank)
            self.joined.add(key)
            if not ev.blocking:
                self.pending_icoll[ev.rid] = (ev.ctx, k, ev)
                return self._advance(rank, ev)
        else:
            k = self.inst[(rank, ev.ctx)] - 1
        if self._coll_complete(ev, k, rank):
            return self._advance(rank, ev)
        return False

    def _coll_complete(self, ev: CollEv, k: int, rank: int) -> bool:
        arrived = self.issued.get((ev.ctx, k), set())
        parts = self.participants.get(ev.ctx, set())
        if ev.name in _ROOT_WAITS_ALL:
            if rank != _conc(ev.root):
                return True
            return parts <= arrived
        if ev.name in _ALL_WAIT_ROOT:
            if rank == _conc(ev.root):
                return True
            return _conc(ev.root) in arrived
        # default: everyone waits for everyone
        return parts <= arrived

    def _icoll_done(self, rid: int) -> bool:
        ctx, k, ev = self.pending_icoll[rid]
        arrived = self.issued.get((ctx, k), set())
        parts = self.participants.get(ctx, set())
        if ev.name in _ALL_WAIT_ROOT and _conc(ev.root) is not None:
            return _conc(ev.root) in arrived
        return parts <= arrived

    # -- waits --------------------------------------------------------------
    def _rid_complete(self, rid: int) -> bool:
        if rid in self.rid_done:
            return True
        if rid in self.pending_icoll and self._icoll_done(rid):
            self.rid_done.add(rid)
            del self.pending_icoll[rid]
            return True
        return False

    def _step_wait(self, rank: int, ev: WaitEv) -> bool:
        if ev.kind in _TEST_KINDS:
            return self._advance(rank, ev)
        states = [self._rid_complete(r) for r in ev.rids]
        if ev.kind in ("waitany", "waitsome"):
            ok = any(states) or not states
        else:
            ok = all(states)
        if ok:
            return self._advance(rank, ev)
        return False

    # -- post-mortem --------------------------------------------------------
    def _counterpart_exists(self, rank: int, ev: Ev) -> bool:
        """Is there *any* event in the whole program that could match?"""
        if isinstance(ev, SendEv):
            dst = _conc(ev.dst)
            if dst is None or not 0 <= dst < self.nprocs:
                return False
            return any(isinstance(o, RecvEv) and o.ctx == ev.ctx
                       and _conc(o.src) == rank
                       and _tag_compatible(ev.tag, o.tag)
                       for o in self.traces[dst].events)
        if isinstance(ev, RecvEv):
            src = _conc(ev.src)
            if src is None or not 0 <= src < self.nprocs:
                return False
            return any(isinstance(o, SendEv) and o.ctx == ev.ctx
                       and _conc(o.dst) == rank
                       and _tag_compatible(o.tag, ev.tag)
                       for o in self.traces[src].events)
        return True

    def _blocking_reason(self, rank: int) -> Optional[tuple[str, Ev]]:
        prog = self.prog[rank]
        pc = self.pc[rank]
        if pc >= len(prog):
            return None
        ev = prog[pc]
        if isinstance(ev, WaitEv):
            # attribute the stall to the first incomplete request
            for rid in ev.rids:
                if self._rid_complete(rid):
                    continue
                for t in self.traces:
                    if t.rank != rank:
                        continue
                    for req in t.requests:
                        if req.rid == rid:
                            return ("wait", req.event)
                return ("wait", ev)
            return ("wait", ev)
        if isinstance(ev, SendEv):
            return ("send", ev)
        if isinstance(ev, RecvEv):
            return ("recv", ev)
        if isinstance(ev, CollEv):
            return ("coll", ev)
        return ("other", ev)

    def _classify_stuck(self) -> None:
        stuck = []
        for rank in range(self.nprocs):
            reason = self._blocking_reason(rank)
            if reason is not None:
                stuck.append((rank, *reason))
        if not stuck:
            return
        reported = False
        for rank, kind, ev in stuck:
            if isinstance(ev, SendEv) and not self._counterpart_exists(
                    rank, ev):
                dst = _conc(ev.dst)
                where = (f"rank {dst} never posts a matching receive"
                         if dst is not None
                         and 0 <= dst < self.nprocs else
                         f"destination rank {ev.dst} does not exist in "
                         f"a {self.nprocs}-process job")
                self.findings.append(Finding(
                    "unmatched-send", ERROR, ev.path, ev.line,
                    f"rank {rank} blocks sending to rank {ev.dst} "
                    f"(tag {ev.tag}) on {ev.ctx}: {where}"))
                reported = True
            elif isinstance(ev, RecvEv) and not self._counterpart_exists(
                    rank, ev):
                src = _conc(ev.src)
                where = (f"rank {src} never sends one"
                         if src is not None
                         and 0 <= src < self.nprocs else
                         f"source rank {ev.src} does not exist in a "
                         f"{self.nprocs}-process job")
                self.findings.append(Finding(
                    "unmatched-recv", ERROR, ev.path, ev.line,
                    f"rank {rank} blocks waiting for a message from "
                    f"rank {ev.src} (tag {ev.tag}) on {ev.ctx}: {where}"))
                reported = True
        if reported:
            return
        # every stuck event has a counterpart somewhere: a true cycle
        sends_only = all(isinstance(ev, SendEv) and kind == "send"
                         for _r, kind, ev in stuck)
        who = ", ".join(f"rank {r} at {ev.location} ({kind})"
                        for r, kind, ev in stuck)
        if sends_only:
            anchor = stuck[0][2]
            self.findings.append(Finding(
                "send-deadlock", ERROR, anchor.path, anchor.line,
                f"head-to-head blocking sends above the eager limit "
                f"({self.eager} B): {who}; every rank is in a "
                f"rendezvous send and none can reach its receive — "
                f"reorder one side (even/odd) or use "
                f"Isend/Sendrecv"))
        else:
            anchor = stuck[0][2]
            self.findings.append(Finding(
                "deadlock", ERROR, anchor.path, anchor.line,
                f"the schedule wedges with {len(stuck)} rank(s) "
                f"blocked: {who}"))

    def _leftovers(self) -> None:
        if any(self.pc[r] < len(self.prog[r]) for r in range(self.nprocs)):
            return                       # stuck states already reported
        for (ctx, src, dst), fifo in sorted(self.chan.items()):
            for ev in fifo:
                self.findings.append(Finding(
                    "unmatched-send", ERROR, ev.path, ev.line,
                    f"rank {src} sends to rank {dst} (tag {ev.tag}) on "
                    f"{ctx} but the message is never received"))
        for (ctx, rank), entry in sorted(self.posted.items()):
            for _r, ev in entry:
                self.findings.append(Finding(
                    "unmatched-recv", ERROR, ev.path, ev.line,
                    f"rank {rank} posts a receive from rank {ev.src} "
                    f"(tag {ev.tag}) on {ctx} that no send ever "
                    f"matches"))
        for rid, (rank, ev) in sorted(self.pending_isend.items()):
            self.findings.append(Finding(
                "unmatched-send", ERROR, ev.path, ev.line,
                f"rank {rank}'s Isend to rank {ev.dst} (tag {ev.tag}) "
                f"on {ev.ctx} is above the eager limit and no matching "
                f"receive is ever posted"))

    def _type_mismatches(self) -> None:
        for sev, rev, srank, rrank in self.matched_pairs:
            sbase, scount = sev.sig
            rbase, rcount = rev.sig
            if sbase not in ("?",) and rbase not in ("?",) \
                    and sbase != rbase:
                self.findings.append(Finding(
                    "type-mismatch", WARNING, rev.path, rev.line,
                    f"receive datatype {rbase} does not match the "
                    f"{sbase} send at {sev.location} (rank {srank} -> "
                    f"rank {rrank}, tag {sev.tag})"))
            elif isinstance(scount, int) and isinstance(rcount, int) \
                    and scount > rcount:
                self.findings.append(Finding(
                    "type-mismatch", WARNING, rev.path, rev.line,
                    f"send of {scount} {sbase} element(s) at "
                    f"{sev.location} overflows this receive of "
                    f"{rcount} (rank {srank} -> rank {rrank}, "
                    f"tag {sev.tag}): the message would be truncated"))
