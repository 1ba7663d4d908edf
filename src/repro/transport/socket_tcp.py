"""Distributed-memory (DM) carriers: kernel sockets between rank pairs.

The paper's DM mode ran each rank in its own process on a separate machine,
talking over 10BaseT Ethernet.  Both socket worlds here are channel
lists handed to the one :class:`~repro.transport.wire.WireTransport`,
over one connected stream per rank pair, made by :func:`mesh`:

* :func:`SocketTransport` — ranks are threads of one Python process; each
  rank pair shares a ``socket.socketpair()`` so every byte still crosses
  the kernel's socket layer (syscalls, kernel buffering, the
  serialize/deserialize round trip), which is what gives the DM path its
  genuinely higher per-message cost.
* :func:`TCPMeshTransport` — ranks are separate OS *processes* (the
  paper's actual ``mpirun`` model).  The job's proxy builds the whole
  mesh before it forks the ranks, a loopback TCP pair per rank pair
  (:func:`tcp_pair`), and each rank keeps its own row of it.

Stream sockets preserve per-pair ordering, which carries MPI's
non-overtaking guarantee.
"""

from __future__ import annotations

import socket
from typing import Callable

from repro.transport.wire import Channel, WireTransport, set_nodelay

#: a rank's ends of the mesh: peer -> the socket it shares with that peer
Row = dict[int, socket.socket]


def mesh(nprocs: int, pair: Callable[[], tuple[socket.socket,
                                              socket.socket]]) -> list[Row]:
    """A full mesh of ``nprocs`` ranks, one connected pair per rank pair
    ``i < j`` made by ``pair()``: ``rows[r][peer]`` is ``r``'s end."""
    rows: list[Row] = [{} for _ in range(nprocs)]
    try:
        for i in range(nprocs):
            for j in range(i + 1, nprocs):
                rows[i][j], rows[j][i] = pair()
    except BaseException:
        for row in rows:
            for sock in row.values():
                sock.close()
        raise
    return rows


def tcp_pair(listener: socket.socket) -> tuple[socket.socket, socket.socket]:
    """A connected loopback TCP pair through ``listener``, both ends
    ``TCP_NODELAY`` and blocking.

    The dial is numeric (no name is looked up), and an accepted
    connection is taken only if its far end is the dialer: anything else
    queued on the listener — a stray local connection to its port — is
    closed, never mistaken for one end of the pair.
    """
    dialer = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    try:
        dialer.connect(listener.getsockname())
        while True:
            sock, far = listener.accept()
            if far == dialer.getsockname():
                break
            sock.close()
    except BaseException:
        dialer.close()
        raise
    for end in (dialer, sock):
        set_nodelay(end)
    return dialer, sock


def SocketTransport(nprocs: int) -> WireTransport:
    """Every rank in this process, a socketpair per rank pair."""
    rows = mesh(nprocs, socket.socketpair)
    return WireTransport(nprocs, range(nprocs),
                         [chan for rank, row in enumerate(rows)
                          for chan in mesh_channels(nprocs, rank, row)])


def mesh_channels(nprocs: int, rank: int, row: Row) -> list[Channel]:
    """``rank``'s mesh sockets as channels; the mesh must be full."""
    if sorted(row) != [r for r in range(nprocs) if r != rank]:
        raise ValueError(f"mesh for rank {rank} must cover all "
                         f"{nprocs - 1} peers, got {sorted(row)}")
    return [Channel(s, rank, peer) for peer, s in row.items()]


def TCPMeshTransport(nprocs: int, rank: int, row: Row) -> WireTransport:
    """One rank of a process-per-rank job over its row of the mesh."""
    return WireTransport(nprocs, (rank,), mesh_channels(nprocs, rank, row))
