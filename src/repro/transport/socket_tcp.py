"""Distributed-memory (DM) carriers: kernel sockets between rank pairs.

The paper's DM mode ran each rank in its own process on a separate machine,
talking over 10BaseT Ethernet.  Both socket worlds here are channel
lists handed to the one :class:`~repro.transport.wire.WireTransport`:

* :func:`SocketTransport` — ranks are threads of one Python process; each
  rank pair shares a ``socket.socketpair()`` so every byte still crosses
  the kernel's socket layer (syscalls, kernel buffering, the
  serialize/deserialize round trip), which is what gives the DM path its
  genuinely higher per-message cost.
* :func:`TCPMeshTransport` — ranks are separate OS *processes* (the
  paper's actual ``mpirun`` model).  A bootstrap rendezvous builds a full
  TCP mesh: every rank opens a listener, the launcher gossips the
  (host, port) address book over the control plane, then rank *j* dials
  every rank *i < j* and accepts from every rank *k > j*; each connection
  opens with a fixed hello frame declaring the dialer's rank.

Stream sockets preserve per-pair ordering, which carries MPI's
non-overtaking guarantee.
"""

from __future__ import annotations

import socket
import struct
import time

from repro.transport.wire import Channel, WireTransport, recv_exact, \
    set_nodelay


def SocketTransport(nprocs: int) -> WireTransport:
    """Every rank in this process, a socketpair per rank pair."""
    chans = []
    for i in range(nprocs):
        for j in range(i + 1, nprocs):
            a, b = socket.socketpair()
            chans += [Channel(a, i, j), Channel(b, j, i)]
    return WireTransport(nprocs, range(nprocs), chans)


# ---------------------------------------------------------------------------
# process-per-rank mesh (the paper's mpirun/WMPI-daemons model)
# ---------------------------------------------------------------------------

#: hello frame opening every mesh connection: the dialer's world rank
MESH_HELLO = struct.Struct("!i")

#: bound on every bootstrap step, so a wedged rendezvous fails fast
#: instead of hanging a CI job
BOOTSTRAP_TIMEOUT = 30.0


def mesh_listener(host: str = "127.0.0.1") -> socket.socket:
    """Open this rank's mesh listener on an ephemeral port."""
    return socket.create_server((host, 0), backlog=64)


def connect(host: str, port: int, timeout: float) -> socket.socket:
    """A TCP connection to ``host:port``, its timeout ``timeout``.

    Dials by address: ``connect`` takes a numeric host as it is and
    looks a name up in C.  The standard library's connection helper
    resolves in Python first, encoding a ``str`` host with the ``idna``
    codec, which a forked rank would import (with ``stringprep`` and
    ``unicodedata``) on its first dial.
    """
    sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    try:
        sock.settimeout(timeout)
        sock.connect((host, port))
    except BaseException:
        sock.close()
        raise
    return sock


def _dial(host: str, port: int, timeout: float) -> socket.socket:
    """Dial a mesh peer with retry + exponential backoff within ``timeout``.

    The address book guarantees the listener *exists*, but under load its
    accept backlog can overflow (every rank dials every lower rank at
    once) and a refused or reset dial is transient — retrying with
    backoff rides it out instead of failing the whole bootstrap.
    """
    deadline = time.monotonic() + timeout
    delay = 0.05
    while True:
        remaining = deadline - time.monotonic()
        if remaining <= 0:
            raise socket.timeout(f"dial {host}:{port} timed out")
        try:
            return connect(host, port, remaining)
        except socket.timeout:
            raise
        except OSError as exc:
            if time.monotonic() + delay >= deadline:
                raise socket.timeout(
                    f"dial {host}:{port} kept failing: {exc}") from exc
            time.sleep(delay)
            delay = min(delay * 2, 1.0)


def build_mesh(rank: int, nprocs: int, listener: socket.socket,
               book: dict[int, tuple[str, int]],
               timeout: float = BOOTSTRAP_TIMEOUT) \
        -> dict[int, socket.socket]:
    """Form this rank's side of the full mesh; returns peer -> socket.

    ``book`` maps every rank to its listener address (gossiped by the
    launcher once all ranks registered, so every listener exists before
    anyone dials).  Entries are ``(host, port)`` or longer tuples whose
    first two fields are the address (the hierarchical bootstrap rides
    extra per-rank facts — node identity, shm availability — in the
    same book).  Dial lower ranks, accept from higher ranks: each
    unordered pair ends up with exactly one connection.
    """
    peers: dict[int, socket.socket] = {}
    try:
        for peer in range(rank):
            host, port = book[peer][0], book[peer][1]
            s = _dial(host, port, timeout)
            set_nodelay(s)
            s.sendall(MESH_HELLO.pack(rank))
            s.settimeout(None)
            peers[peer] = s
        listener.settimeout(timeout)
        for _ in range(nprocs - 1 - rank):
            s, _addr = listener.accept()
            # NODELAY on the *accepted* side too: without it every ACK /
            # CTS / small frame this side writes can stall in Nagle
            set_nodelay(s)
            s.settimeout(timeout)
            (peer,) = MESH_HELLO.unpack(recv_exact(s, MESH_HELLO.size))
            if not rank < peer < nprocs or peer in peers:
                raise ConnectionError(f"bad mesh hello from rank {peer}")
            s.settimeout(None)
            peers[peer] = s
    except socket.timeout as exc:
        for s in peers.values():
            s.close()
        raise TimeoutError(
            f"rank {rank}: mesh bootstrap timed out after {timeout}s "
            f"({len(peers)} of {nprocs - 1} peers connected)") from exc
    finally:
        listener.close()
    return peers


def mesh_channels(nprocs: int, rank: int,
                  peer_socks: dict[int, socket.socket]) -> list[Channel]:
    """``rank``'s mesh sockets as channels; the mesh must be full."""
    if sorted(peer_socks) != [r for r in range(nprocs) if r != rank]:
        raise ValueError(f"mesh for rank {rank} must cover all "
                         f"{nprocs - 1} peers, got {sorted(peer_socks)}")
    return [Channel(s, rank, peer) for peer, s in peer_socks.items()]


def TCPMeshTransport(nprocs: int, rank: int,
                     peer_socks: dict[int, socket.socket]) -> WireTransport:
    """One rank of a process-per-rank job over its full TCP mesh."""
    return WireTransport(nprocs, (rank,),
                         mesh_channels(nprocs, rank, peer_socks))
