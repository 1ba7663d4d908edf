"""Transports: how envelopes move between ranks.

* :class:`~repro.transport.inproc.InprocTransport` — shared-memory mode
  (the paper's SM): direct handoff between threads, one copy per side.
* :class:`~repro.transport.chunked.ChunkedTransport` — an "MPICH-like"
  portable path: packetized staging copies on top of another transport.
* :class:`~repro.transport.wire.WireTransport` — distributed-memory mode
  (the paper's DM) and the only transport that speaks the wire format:
  one eager/rendezvous protocol engine over a per-peer table of
  channels.  Its constructors pick the channels:
  :func:`~repro.transport.socket_tcp.SocketTransport` (every rank in one
  process, a kernel socketpair per pair),
  :func:`~repro.transport.socket_tcp.TCPMeshTransport` (one rank of a
  process-per-rank job — the paper's real ``mpirun`` model — over its
  row of the loopback TCP mesh the job's proxy builds before forking
  the ranks, :mod:`repro.executor.procworker`),
  :func:`~repro.transport.shm.shm_world` (every rank in one process,
  a socketpair per pair plus a shared-memory bulk lane per direction),
  and the process worker, which takes its row of mesh sockets and — in
  a job with shm lanes, after one hello per pair on its socket —
  attaches a :class:`~repro.transport.shm.ShmChannel` lane each way and
  probes whether it can read the peer's memory
  (:mod:`repro.transport.cma`).
  Every frame header rides the pair's socket; a payload at or above the
  eager limit is read by the receiver straight out of the sender's
  memory where the probe passed (one copy), and goes through the lane
  where it did not.
* :class:`~repro.transport.modeled.ModeledTransport` — charges a calibrated
  latency/bandwidth cost model to a virtual clock so the benchmark harness
  can regenerate the paper's published 1999 numbers deterministically.
"""

from repro.transport.base import Transport
from repro.transport.inproc import InprocTransport
from repro.transport.chunked import ChunkedTransport
from repro.transport.socket_tcp import SocketTransport, TCPMeshTransport
from repro.transport.modeled import ModeledTransport
from repro.transport.wire import WireTransport
from repro.transport import netmodel

TRANSPORTS = {
    "inproc": InprocTransport,
    "chunked": ChunkedTransport,
    "socket": SocketTransport,
}


def make_transport(name: str, nprocs: int, **kwargs) -> Transport:
    """Factory used by the executor: ``inproc``, ``chunked`` or ``socket``."""
    try:
        cls = TRANSPORTS[name]
    except KeyError:
        raise ValueError(f"unknown transport {name!r}; "
                         f"choose from {sorted(TRANSPORTS)}") from None
    return cls(nprocs, **kwargs)


__all__ = ["Transport", "InprocTransport", "ChunkedTransport",
           "SocketTransport", "TCPMeshTransport", "ModeledTransport",
           "WireTransport",
           "make_transport", "netmodel", "TRANSPORTS"]
