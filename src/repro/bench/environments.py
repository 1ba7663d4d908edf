"""Benchmark environments: the columns of Table 1.

Each environment pairs a *platform model* (WMPI, MPICH, Wsock, Linux ×
SM/DM) with an *API level* (``capi`` for the ``-C`` columns, ``mpijava``
for ``-J``, ``raw`` for Wsock) and a *timing mode*:

* ``modeled`` — the full MPI stack runs on the in-process transport while a
  :class:`~repro.transport.modeled.ModeledTransport` charges the calibrated
  1999 cost model (:mod:`repro.transport.netmodel`) to a virtual clock;
  this regenerates the paper's published magnitudes deterministically.
* ``measured`` — wall-clock time on live transports: WMPI ↦ the fast path
  (in-process for SM, kernel sockets for DM), MPICH ↦ the packetized
  staging path layered on the same carrier; this validates the paper's
  *shape* claims on real executions.
"""

from __future__ import annotations

import socket
import threading
import time
from dataclasses import dataclass

from repro.runtime.engine import Universe
from repro.transport.chunked import ChunkedTransport
from repro.transport.inproc import InprocTransport
from repro.transport.modeled import ModeledTransport
from repro.transport.netmodel import ENVIRONMENTS, NetworkModel
from repro.transport.socket_tcp import SocketTransport
from repro.transport.wire import recv_exact
from repro.util.clock import VirtualClock


@dataclass(frozen=True)
class BenchEnv:
    """One benchmark column: platform model × API level × timing mode."""

    model_key: str           # e.g. "WMPI_SM" (see netmodel.ENVIRONMENTS)
    api: str                 # "capi" | "mpijava" | "raw"
    timing: str              # "modeled" | "measured"

    @property
    def model(self) -> NetworkModel:
        return ENVIRONMENTS[self.model_key]

    @property
    def mode(self) -> str:
        return self.model.mode  # "SM" | "DM"

    @property
    def modeled(self) -> bool:
        return self.timing == "modeled"

    @property
    def key(self) -> str:
        return f"{self.model_key}:{self.api}:{self.timing}"

    @property
    def label(self) -> str:
        """The paper's column label, e.g. ``WMPI-J``."""
        name = self.model.name
        if self.api == "raw":
            return "Wsock"
        return f"{name}-{'J' if self.api == 'mpijava' else 'C'}"


#: Table 1 column order per mode row (paper Table 1)
ENV_TABLE = (("WSOCK", "raw"), ("WMPI", "capi"), ("WMPI", "mpijava"),
             ("MPICH", "capi"), ("MPICH", "mpijava"),
             ("LINUX", "capi"), ("LINUX", "mpijava"))


def make_env(platform: str, mode: str, api: str, timing: str) -> BenchEnv:
    return BenchEnv(model_key=f"{platform}_{mode}", api=api, timing=timing)


def build_universe(env: BenchEnv) -> Universe:
    """A two-rank universe configured for one benchmark environment."""
    if env.modeled:
        clock = VirtualClock()
        transport = ModeledTransport(2, env.model, clock,
                                     inner=InprocTransport(2))
        return Universe(2, transport=transport, clock=clock,
                        cost_model=env.model)
    if env.mode == "SM":
        if env.model_key.startswith("WMPI"):
            transport = InprocTransport(2)
        else:  # MPICH/Linux: the packetized portable path
            transport = ChunkedTransport(2)
    else:
        carrier = SocketTransport(2)
        if env.model_key.startswith("WMPI"):
            transport = carrier
        else:
            transport = ChunkedTransport(2, inner=carrier)
    return Universe(2, transport=transport)


# ---------------------------------------------------------------------------
# raw ("Wsock") ping-pong: no MPI stack at all
# ---------------------------------------------------------------------------

def run_raw(env: BenchEnv, sizes, reps: int | None):
    """Raw-transport one-way times, the floor under the MPI columns."""
    from repro.bench.pingpong import default_reps
    out = []
    for size in sizes:
        n = reps or default_reps(size, env.modeled)
        if env.modeled:
            out.append((size, env.model.message_time(size)))
        elif env.mode == "DM":
            out.append((size, _raw_socket_oneway(size, n)))
        else:
            out.append((size, _raw_queue_oneway(size, n)))
    return out


def _raw_socket_oneway(size: int, reps: int) -> float:
    """Echo ``reps`` messages over a kernel socket pair."""
    a, b = socket.socketpair()
    stop = threading.Event()

    def echo():
        try:
            while not stop.is_set():
                b.sendall(recv_exact(b, size))
        except OSError:
            pass

    t = threading.Thread(target=echo, daemon=True)
    t.start()
    payload = bytes(size)
    t0 = time.perf_counter()
    for _ in range(reps):
        a.sendall(payload)
        recv_exact(a, size)
    t1 = time.perf_counter()
    stop.set()
    a.close()
    b.close()
    t.join(timeout=2.0)
    return (t1 - t0) / (2 * reps)


def _raw_queue_oneway(size: int, reps: int) -> float:
    """Echo over bare in-process queues (the SM raw floor)."""
    import queue
    ping: queue.SimpleQueue = queue.SimpleQueue()
    pong: queue.SimpleQueue = queue.SimpleQueue()
    stop = object()

    def echo():
        while True:
            item = ping.get()
            if item is stop:
                return
            pong.put(bytes(item))  # one copy, like a memcpy handoff

    t = threading.Thread(target=echo, daemon=True)
    t.start()
    payload = bytes(size)
    t0 = time.perf_counter()
    for _ in range(reps):
        ping.put(payload)
        pong.get()
    t1 = time.perf_counter()
    ping.put(stop)
    t.join(timeout=2.0)
    return (t1 - t0) / (2 * reps)
