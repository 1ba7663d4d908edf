"""Cost-charging transport for *modeled* benchmark mode.

Wraps a real transport (in-process by default), and charges
``model.predict_time(payload bytes, wrapper)`` to the universe's
:class:`~repro.util.clock.VirtualClock` for every data message: the C
path's message time, plus the OO binding's per-message wrapper term when
the job models an mpiJava (``-J``) column.  That term covers one Send
call and one Recv call, so a message is its whole one-way cost and the
binding itself charges nothing.  Control messages (sync ACKs) are
charged the per-message software overhead only.

In a strictly alternating exchange (PingPong) at most one message is in
flight, so a single global virtual clock accumulates exactly the per-
message costs — which is how the harness regenerates the paper's published
latency/bandwidth numbers deterministically while still executing the full
MPI stack (matching, copies, handle lookups, the OO layer).
"""

from __future__ import annotations

from repro.runtime.envelope import Envelope, KIND_DATA
from repro.transport.base import Transport
from repro.transport.inproc import InprocTransport
from repro.transport.netmodel import NetworkModel
from repro.util.clock import Clock


class ModeledTransport(Transport):
    """Charge a calibrated cost model; deliver via an inner transport."""

    def __init__(self, nprocs: int, model: NetworkModel, clock: Clock,
                 inner: Transport | None = None, wrapper: bool = False):
        super().__init__(nprocs)
        self.model = model
        self.clock = clock
        self.wrapper = wrapper  # charge the -J wrapper term per message
        self.inner = inner or InprocTransport(nprocs)
        self.mode = self.inner.mode  # matching semantics follow the carrier
        self.messages = 0
        self.bytes_charged = 0

    def set_deliver(self, rank, fn):
        super().set_deliver(rank, fn)
        self.inner.set_deliver(rank, fn)

    def set_direct_claim(self, rank, fn):
        super().set_direct_claim(rank, fn)
        self.inner.set_direct_claim(rank, fn)

    def start(self):
        self.inner.start()

    def close(self):
        self.inner.close()

    def send(self, env: Envelope) -> None:
        if env.kind == KIND_DATA:
            nbytes = env.payload_nbytes()
            self.clock.advance(self.model.predict_time(nbytes, self.wrapper))
            self.messages += 1
            self.bytes_charged += nbytes
        else:
            self.clock.advance(self.model.t_sw)
        self.inner.send(env)

    def describe(self) -> str:
        return (f"ModeledTransport(env={self.model.name}/{self.model.mode}, "
                f"inner={self.inner.describe()})")
