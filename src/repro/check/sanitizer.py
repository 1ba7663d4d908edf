"""Runtime MPI correctness sanitizer (``REPRO_SANITIZE=1``).

A MUST/Umpire-style *dynamic* verification layer for user MPI programs,
installed per :class:`~repro.runtime.engine.Universe` when the
environment enables it.  Five checks:

**Deadlock detection** (not a timeout): every blocked specific-source
receive (and synchronous send) registers a wait-for edge and runs a
Chandy-Misra-Haas-style edge-chasing probe loop.  Probes are
``KIND_SANITIZE`` envelopes riding the normal transport, so the scheme
is identical on all three backends (threads-SM, threads-DM sockets,
process-per-rank TCP).  A probe travels along wait-for edges — each
blocked rank forwards it *from its own wait loop* (pump threads never
write, preserving the wire discipline) — and a cycle is declared when
the initiator receives its own probe back with every hop still in the
same wait incarnation, twice in a row.  The diagnostic names the cycle
and each rank's pending envelopes; the blocked request completes with
``ERR_OTHER`` carrying it.

For two-rank cycles the detection is *exact*: probes share the FIFO
data channels, so when the probe returns, all data either rank sent
before probing has already been delivered and failed to match — with
both ranks provably blocked on each other, no future message can exist.
Longer cycles use the two-round incarnation check, which is the
standard edge-chasing confirmation.  ``MPI_ANY_SOURCE`` receives post
no edge (any sender could complete them).

**Send-buffer mutation**: ``Isend`` snapshots a checksum of the user's
send window; the first ``Wait``/successful ``Test`` — the moment MPI
returns buffer ownership — recomputes and raises on mismatch.  The
snapshot hashes the *user buffer*, not the wire payload, so mutation is
caught even on backends that gather a private copy eagerly.

**Datatype signatures**: arriving envelopes carry their element dtype
and count in the wire header; landing cross-checks them against the
posted receive's type signature and raises ``ERR_TYPE`` with a
sanitizer diagnostic on mismatch.

**Collective consistency**: a PMPI profiler records, per communicator
(by collective context id) and per call index, the operation name, root
and datatype signature; a rank deviating from what another rank already
recorded raises immediately instead of hanging.  Cross-rank comparison
needs the ranks to share the process (threads backends); the
process-per-rank backend still gets the call-order bookkeeping locally.

**Finalize audit**: after the Finalize barrier each rank reports
unexpected-queue leftovers, never-completed requests, dynamically
created datatypes never freed, and a still-attached bsend buffer — to
stderr by default, raising under ``REPRO_SANITIZE_STRICT=1``.

Tunables: ``REPRO_SANITIZE_PROBE_MS`` (wait-loop tick, default 40).
"""

from __future__ import annotations

import itertools
import pickle
import sys
import threading
import weakref
import zlib

from repro import config
from repro.errors import MPIException, ERR_OTHER, ERR_TYPE
from repro.jni.spec import CALLS, Call
from repro.mpijava.profiler import CommProfiler
from repro.runtime.envelope import Envelope, KIND_SANITIZE


class _BlockedWait:
    """One rank's current blocking wait (at most one per rank thread).

    ``req`` is None for *transport-level* waits (a writer stalled on a
    full shm bulk lane): there is no MPI request to fail, so a confirmed
    cycle is reported rather than completed-with-error.
    """

    __slots__ = ("rank", "wait_id", "waiting_on", "ctx", "tag", "op",
                 "req")

    def __init__(self, rank, wait_id, waiting_on, ctx, tag, op, req):
        self.rank = rank
        self.wait_id = wait_id
        self.waiting_on = waiting_on
        self.ctx = ctx
        self.tag = tag
        self.op = op
        self.req = req

    def describe(self) -> str:
        if self.req is None:
            return f"{self.op}(peer={self.waiting_on})"
        return (f"{self.op}(source={self.waiting_on}, tag={self.tag}, "
                f"ctx={self.ctx})")


class Sanitizer:
    """Per-universe dynamic verification state."""

    def __init__(self, universe):
        self.universe = universe
        self.enabled = True
        self.strict = config.sanitize_strict()
        self.probe_interval = config.sanitize_probe_interval()
        self._lock = threading.Lock()
        self._wait_ids = itertools.count(1)
        #: world rank -> its current _BlockedWait
        self._blocked: dict[int, _BlockedWait] = {}
        #: world rank -> probes delivered while it was blocked
        self._inbox: dict[int, list[dict]] = {}
        #: returned-cycle signature -> times seen (two-round confirm)
        self._suspects: dict[tuple, int] = {}
        #: all requests ever created in this universe (Finalize audit)
        self._requests: "weakref.WeakSet" = weakref.WeakSet()
        self._coll_lock = threading.Lock()
        #: coll ctx -> [(name, root, dtype_sig, first_rank), ...]
        self._coll_log: dict[int, list[tuple]] = {}
        #: (coll ctx, world rank) -> next call index
        self._coll_idx: dict[tuple, int] = {}
        self._profiler: "_CollConsistencyProfiler | None" = None
        #: diagnostics kept for tests / tooling
        self.deadlock_reports: list[str] = []
        self.finalize_reports: dict[int, list[str]] = {}

    # -- lifecycle ----------------------------------------------------------
    def install(self) -> "Sanitizer":
        from repro.mpijava import profiler
        self._profiler = _CollConsistencyProfiler(self)
        profiler.attach(self._profiler)
        return self

    def uninstall(self) -> None:
        if self._profiler is not None:
            from repro.mpijava import profiler
            profiler.detach(self._profiler)
            self._profiler = None

    # -- request tracking (Finalize audit) ----------------------------------
    def note_request(self, req) -> None:
        from repro.runtime.engine import try_current_runtime
        rt = try_current_runtime()
        req.san_rank = rt.world_rank if rt is not None else -1
        self._requests.add(req)

    # -- send-buffer mutation checksums --------------------------------------
    def snapshot_send(self, buf, offset, count, datatype):
        """Checksum the user's send window; returns a verifier or None.

        The verifier is stashed on the request and invoked at the first
        Wait/Test that observes completion — the MPI-defined moment the
        buffer returns to user ownership.
        """
        if datatype.base.is_object:
            return None
        crc = self._window_crc(buf, offset, count, datatype)

        def verify():
            now = self._window_crc(buf, offset, count, datatype)
            if now != crc:
                raise MPIException(
                    ERR_OTHER,
                    f"sanitizer: send buffer mutated before completion "
                    f"(checksum {crc:#010x} at Isend, {now:#010x} at "
                    f"Wait/Test) — an in-flight send buffer is owned by "
                    f"MPI until its request completes")
        return verify

    @staticmethod
    def _window_crc(buf, offset, count, datatype) -> int:
        from repro.runtime.buffers import extract_send_payload
        import numpy as np
        payload, _, _ = extract_send_payload(buf, offset, count, datatype,
                                             allow_view=False)
        return zlib.crc32(memoryview(np.ascontiguousarray(payload))
                          .cast("B"))

    # -- datatype signature check -------------------------------------------
    def check_signature(self, env, datatype, count):
        """Cross-check an arriving envelope against the posted type.

        Returns a ``(count, error, message)`` land-result on mismatch,
        None when the signature agrees (landing proceeds normally).
        """
        payload = getattr(env, "payload", None)
        if payload is None or env.is_object or datatype.base.is_object:
            return None     # object traffic: land_payload's checks apply
        if getattr(payload, "shape", (0,))[0] == 0:
            return None     # empty message: no element data to disagree
        want = datatype.base.np_dtype
        if payload.dtype != want:
            return 0, ERR_TYPE, (
                f"sanitizer: datatype signature mismatch: message from "
                f"rank {env.src} (tag {env.tag}, ctx {env.context}) "
                f"carries {payload.shape[0]} x {payload.dtype} but the "
                f"posted receive expects {datatype.base.name} "
                f"(signature {self.signature_hash(payload.dtype):#010x} "
                f"!= {self.signature_hash(want):#010x})")
        return None

    @staticmethod
    def signature_hash(np_dtype) -> int:
        return zlib.crc32(np_dtype.str.encode())

    # -- deadlock detection ---------------------------------------------------
    def sanitized_wait(self, requests, waiter) -> None:
        """The sleep of a wait-for-all under the sanitizer: park
        ``waiter`` (opened once all of ``requests`` are done, by an
        errored completion or by an abort), ticking the probe protocol
        meanwhile — one wait-for edge at a time, as waiting on the
        requests in turn would post them.  Requests with no specific
        peer carry no edge and just sleep.
        """
        for req in requests:
            info = getattr(req, "sanitize_block", None)
            if info is None or req.done:
                continue
            rank, waiting_on, ctx, tag, op = info
            bw = _BlockedWait(rank, next(self._wait_ids), waiting_on, ctx,
                              tag, op, req)
            with self._lock:
                self._blocked[rank] = bw
            try:
                while not (req.done or waiter.park(self.probe_interval)):
                    self._tick(bw)
            finally:
                self.transport_wait_end(bw)
        waiter.park()

    # -- transport-level waits (shm bulk-lane space) -------------------------
    def transport_wait_begin(self, rank: int, peer: int, what: str):
        """A rank thread blocked *inside the transport* (e.g. on shm
        lane space): register the wait-for edge so the cycle detector
        sees through the transport layer.  Returns the wait token, or
        None when the rank's wait slot is already taken (an MPI-level
        wait owns the edge — it subsumes the transport stall)."""
        wid = next(self._wait_ids)
        bw = _BlockedWait(rank, wid, peer, -1, -1, f"shm.{what}", None)
        with self._lock:
            if rank in self._blocked:
                return None
            self._blocked[rank] = bw
        return bw

    def transport_wait_tick(self, bw) -> None:
        """One probe round for a transport-level wait.  Probes go out of
        band (``transport.send_oob``) — a writer stalled on a full lane
        holds the pair's write lock between a header and its body, and
        the transport knows how to put a probe on the wire from there."""
        if bw is not None and not self.universe.aborted:
            self._tick(bw, oob=True)

    def transport_wait_end(self, bw) -> None:
        """Withdraw ``bw``'s edge (also how an MPI-level wait ends)."""
        if bw is None:
            return
        with self._lock:
            if self._blocked.get(bw.rank) is bw:
                del self._blocked[bw.rank]
                self._inbox.pop(bw.rank, None)

    def on_deliver(self, env: Envelope) -> None:
        """Transport delivered a probe (any thread, including pumps).

        Only queues — forwarding happens in the target rank's own wait
        loop, because pump threads must never write to the wire.  Probes
        for a rank that is not blocked are dropped: the initiator
        re-probes every tick, so nothing is lost, and the inbox stays
        bounded.
        """
        probe = pickle.loads(bytes(env.payload))
        with self._lock:
            if env.dst not in self._blocked:
                return
            self._inbox.setdefault(env.dst, []).append(probe)

    def _tick(self, bw: _BlockedWait, oob: bool = False) -> None:
        """One probe round for a blocked rank: drain inbox, re-originate."""
        with self._lock:
            if self._blocked.get(bw.rank) is not bw:
                return
            inbox = self._inbox.pop(bw.rank, [])
        for probe in inbox:
            if probe["path"][0][0] == bw.rank:
                # our own probe came back around the cycle
                if probe["path"][0][1] == bw.wait_id:
                    self._returned(bw, probe)
                continue
            if any(r == bw.rank for r, _ in probe["path"]):
                continue    # stale loop not through the initiator
            fwd = {
                "path": probe["path"] + [(bw.rank, bw.wait_id)],
                "waits": {**probe["waits"], bw.rank: bw.describe()},
                "pending": {**probe["pending"],
                            bw.rank: self._pending_of(bw.rank)},
            }
            self._send_probe(fwd, bw.waiting_on, bw.rank, oob)
        self._send_probe({
            "path": [(bw.rank, bw.wait_id)],
            "waits": {bw.rank: bw.describe()},
            "pending": {bw.rank: self._pending_of(bw.rank)},
        }, bw.waiting_on, bw.rank, oob)

    def _returned(self, bw: _BlockedWait, probe: dict) -> None:
        """Initiator got its own probe back: confirm, then report."""
        signature = (bw.rank, tuple(probe["path"]))
        with self._lock:
            seen = self._suspects[signature] = \
                self._suspects.get(signature, 0) + 1
        if seen < 2 and len(probe["path"]) > 2:
            # cycles longer than two ranks use the two-round
            # incarnation confirmation (see module docstring)
            return
        ranks = [r for r, _ in probe["path"]]
        cycle = " -> ".join(f"rank {r}" for r in ranks + [ranks[0]])
        waits = "; ".join(
            f"rank {r} blocked in {probe['waits'][r]}" for r in ranks)
        pending = "; ".join(
            f"pending at rank {r}: "
            f"{', '.join(probe['pending'][r]) or 'nothing'}"
            for r in ranks)
        msg = (f"sanitizer: deadlock detected: cycle {cycle}; "
               f"{waits}; {pending}")
        self.deadlock_reports.append(msg)
        if bw.req is None:
            # transport-level wait: nothing to complete — name the cycle
            # for whoever is watching (a peer's MPI-level wait in the
            # same cycle fails its own request when its probe returns)
            print(msg, file=sys.stderr)
            return
        bw.req.complete(error=ERR_OTHER, error_message=msg)

    def _pending_of(self, rank: int) -> list[str]:
        mb = self.universe.mailboxes[rank]
        return mb.pending_summary() if mb is not None else []

    def _send_probe(self, probe: dict, dst: int, src: int,
                    oob: bool = False) -> None:
        env = Envelope(kind=KIND_SANITIZE, src=src, dst=dst,
                       payload=pickle.dumps(probe, protocol=4),
                       is_object=True)
        transport = self.universe.transport
        # probes for transport-level waits must not ride the wedged
        # data path
        send = transport.send_oob if oob else transport.send
        try:
            send(env)
        except Exception:
            pass    # peer tearing down: the job is ending anyway

    # -- collective consistency ----------------------------------------------
    def check_collective(self, rt, call: Call, args: tuple) -> None:
        """``args`` is the capi argument tuple of ``call``, a ``coll`` row
        (position 0 is the comm handle)."""
        name = call.oo_name
        root_pos, dtype_pos = call.index("root"), call.first("dtype")
        from repro.jni.handles import tables_for
        tables = tables_for(rt)
        try:
            impl = tables.comms.lookup(args[0])
        except MPIException:
            return
        root = args[root_pos] if root_pos is not None \
            and root_pos < len(args) else None
        dtype_sig = None
        if dtype_pos is not None and dtype_pos < len(args):
            try:
                dt = tables.datatypes.lookup(args[dtype_pos])
                dtype_sig = (dt.base.name, dt.size_elems)
            except MPIException:
                pass
        ctx = impl.ctx_coll
        rank = rt.world_rank
        record = (name, root, dtype_sig)
        with self._coll_lock:
            idx = self._coll_idx.get((ctx, rank), 0)
            self._coll_idx[(ctx, rank)] = idx + 1
            log = self._coll_log.setdefault(ctx, [])
            if idx >= len(log):
                log.append(record + (rank,))
                return
            first_name, first_root, first_sig, first_rank = log[idx]
        if (name, root, dtype_sig) != (first_name, first_root, first_sig):
            def fmt(n, r, s):
                parts = [n]
                if r is not None:
                    parts.append(f"root={r}")
                if s is not None:
                    parts.append(f"datatype={s[0]} x{s[1]}")
                return " ".join(parts)
            raise MPIException(
                ERR_OTHER,
                f"sanitizer: collective mismatch on ctx {ctx} at call "
                f"#{idx}: rank {rank} called {fmt(name, root, dtype_sig)} "
                f"but rank {first_rank} called "
                f"{fmt(first_name, first_root, first_sig)}")

    # -- Finalize audit --------------------------------------------------------
    def finalize_audit(self, rt) -> None:
        report: list[str] = []
        unexpected, posted = rt.mailbox.pending_counts()
        if unexpected or posted:
            detail = ", ".join(rt.mailbox.pending_summary())
            if unexpected:
                report.append(f"{unexpected} message(s) never received "
                              f"({detail})")
            if posted:
                report.append(f"{posted} posted receive(s) never matched "
                              f"({detail})")
        stale = [r for r in self._requests
                 if getattr(r, "san_rank", -1) == rt.world_rank
                 and not r.done and not r.cancelled
                 and (not r.persistent or r.active)]
        if stale:
            report.append(f"{len(stale)} request(s) never completed: "
                          + ", ".join(repr(r) for r in stale[:8]))
        table = getattr(rt, "_handle_table", None)
        if table is not None:
            from repro.jni.handles import _FIRST_DYNAMIC_HANDLE
            leaked = [h for h in table.datatypes._by_handle
                      if h >= _FIRST_DYNAMIC_HANDLE]
            if leaked:
                report.append(f"{len(leaked)} derived datatype(s) never "
                              f"freed (handles {sorted(leaked)[:8]})")
        if getattr(rt.bsend_pool, "_attached", False):
            report.append("bsend buffer still attached (Buffer_detach "
                          "never called)")
        self.finalize_reports[rt.world_rank] = report
        if report:
            lines = "".join(f"\n  - {item}" for item in report)
            text = (f"sanitizer: Finalize audit, rank {rt.world_rank}:"
                    f"{lines}")
            if self.strict:
                raise MPIException(ERR_OTHER, text)
            print(text, file=sys.stderr)


class _CollConsistencyProfiler(CommProfiler):
    """PMPI interposer feeding the collective-consistency check."""

    def __init__(self, owner: Sanitizer):
        self.owner = owner

    def intercept(self, comm, name, args, invoke):
        call = CALLS.get(name.lower())
        if call is not None and call.cls == "coll":
            from repro.runtime.engine import try_current_runtime
            rt = try_current_runtime()
            if rt is not None and rt.universe is self.owner.universe:
                self.owner.check_collective(rt, call, args)
        return invoke()

    def reset(self) -> None:
        with self.owner._coll_lock:
            self.owner._coll_log.clear()
            self.owner._coll_idx.clear()
