"""Transport interface.

A transport moves :class:`~repro.runtime.envelope.Envelope` objects between
ranks of one job.  The engine wires a *deliver callback* per rank (the
rank's mailbox intake); ``send`` must eventually invoke the destination's
callback exactly once per envelope, preserving per-(source, destination)
FIFO order — the property MPI's non-overtaking rule is built on.
"""

from __future__ import annotations

from typing import Callable

from repro.runtime.envelope import Envelope

DeliverFn = Callable[[Envelope], None]


class Transport:
    """Abstract transport for one job of ``nprocs`` ranks."""

    #: human-readable mode tag used by benchmarks/tests ("SM" or "DM")
    mode = "SM"

    def __init__(self, nprocs: int):
        self.nprocs = int(nprocs)
        self._deliver: list[DeliverFn | None] = [None] * self.nprocs
        #: optional pump-side fast path: commit an incoming eager frame to
        #: a posted receive *before* its body is read off the wire, so the
        #: payload can land straight in the user buffer (zero staging)
        self._direct_claim: list = [None] * self.nprocs

    def set_deliver(self, rank: int, fn: DeliverFn) -> None:
        """Install the intake callback for ``rank`` (called by the engine)."""
        self._deliver[rank] = fn

    def set_direct_claim(self, rank: int, fn) -> None:
        """Install the header-peek claim hook for ``rank`` (see Mailbox
        ``claim_direct_recv``); wire transports use it, others ignore it."""
        self._direct_claim[rank] = fn

    def start(self) -> None:
        """Begin moving messages (spawn pumps etc.). Default: nothing."""

    def send(self, env: Envelope) -> None:
        """Move ``env`` to ``env.dst``.  Must preserve per-pair FIFO order."""
        raise NotImplementedError

    def send_oob(self, env: Envelope) -> None:
        """Control delivery for a wait blocked *inside* the transport (a
        sanitizer probe); transports whose data path can wedge override
        this with a lane that cannot.  Default: the data path."""
        self.send(env)

    def set_sanitizer(self, san) -> None:
        """Feed the transport's internal wait states (if it has any)
        into the sanitizer's wait-for graph.  Default: nothing to arm."""

    def broadcast_control(self, env: Envelope, dsts=None) -> None:
        """Deliver a control envelope (e.g. abort) to every rank, or to
        the world ranks ``dsts`` (a revoke token goes to its
        communicator's members only).

        The payload must survive the fan-out: abort envelopes carry the
        errorcode and pickled root cause (see ``envelope.encode_abort_env``),
        which is all a process-isolated receiver has to go on.  Every
        destination is attempted — the rank whose death is being
        announced is typically the one whose send raises — and the first
        error is re-raised once the fan-out is complete.
        """
        first = None
        for dst in range(self.nprocs) if dsts is None else dsts:
            ctl = Envelope(kind=env.kind, src=env.src, dst=dst,
                           context=env.context, tag=env.tag, seq=env.seq,
                           payload=env.payload, nelems=env.nelems,
                           is_object=env.is_object)
            try:
                self.send(ctl)
            except Exception as exc:  # noqa: BLE001 - re-raised below
                first = first or exc
        if first is not None:
            raise first

    def close(self) -> None:
        """Tear down pumps and OS resources. Idempotent."""

    # -- introspection used by benchmarks --------------------------------------
    def describe(self) -> str:
        return f"{type(self).__name__}(nprocs={self.nprocs})"
