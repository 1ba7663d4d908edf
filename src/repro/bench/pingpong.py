"""The PingPong kernel (paper §4.2) and the launcher every producer uses.

    "In this program increasing sized messages are sent back and forth
     between processes ... based on standard blocking MPI_Send/MPI_Recv.
     PingPong provides information about latency of MPI_Send/MPI_Recv and
     uni-directional bandwidth.  To ensure that anomalies in message
     timings are minimised the PingPong is repeated many times for each
     message size."

One timed loop, :func:`one_way`, at the binding layer the paper's columns
name:

* ``api="mpijava"``      — the OO binding (the ``-J`` columns);
* ``api="capi"``         — direct JNI-stub calls (the ``-C`` columns);
* ``api="communicator"`` — the runtime the stubs call, below both.

The Wsock column has no MPI stack: its bare transport echo lives in
:mod:`repro.bench.environments`.  :func:`sweep` is the one SPMD body
(message sizes × a contiguous or strided layout) and :func:`launch` the
one way to run a body on a backend (:data:`BACKENDS`).

Timing uses the job's clock (``MPI.Wtime``); under a
:class:`~repro.util.clock.VirtualClock` (modeled mode) the numbers are
the calibrated model's, under the default wall clock they are live
measurements.  One *result time* is the one-way latency: half the
averaged round trip, best of the trials.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field

import numpy as np

from repro.executor.procrunner import ProcExecutor
from repro.executor.runner import MPIExecutor
from repro.jni import capi, handles as H
from repro.mpijava import MPI, Datatype
from repro.runtime import nbc
from repro.runtime.collective.barrier import plan_barrier
from repro.runtime.engine import current_runtime
from repro.transport import wire

#: message sizes of Figures 5/6: 1 B .. 1 MB in powers of two
FIGURE_SIZES = tuple(2 ** k for k in range(0, 21))

#: where a job runs: rank threads over the in-process handoff or kernel
#: socketpairs, or one OS process per rank
BACKENDS = ("threads-SM", "threads-DM", "procs-DM")

#: the strided layout: float64 runs of STRIDED_BLOCK_ELEMS elements at a
#: STRIDED_STRIDE_FACTOR x stride (50 % density) — e.g. the rows of every
#: other matrix column, the paper's canonical Vector use
STRIDED_BLOCK_ELEMS = 4096
STRIDED_STRIDE_FACTOR = 2

_PING_TAG = 1001
_PONG_TAG = 1002
_RELEASE_TAG = 1003


@dataclass
class PingPongResult:
    """One environment's sweep: per-size one-way times and bandwidths."""

    env: str
    api: str
    sizes: list[int] = field(default_factory=list)
    times: list[float] = field(default_factory=list)       # one-way seconds
    bandwidths: list[float] = field(default_factory=list)  # bytes/second

    def add(self, size: int, one_way: float) -> None:
        self.sizes.append(size)
        self.times.append(one_way)
        self.bandwidths.append(size / one_way if one_way > 0 else 0.0)

    def time_at(self, size: int) -> float:
        return self.times[self.sizes.index(size)]

    def bandwidth_at(self, size: int) -> float:
        return self.bandwidths[self.sizes.index(size)]

    def peak_bandwidth(self) -> tuple[int, float]:
        i = int(np.argmax(self.bandwidths))
        return self.sizes[i], self.bandwidths[i]


def default_reps(size: int, modeled: bool) -> int:
    """Repetition count per message size.

    Modeled mode is deterministic, so a handful of reps suffices; measured
    mode repeats many times for small messages, as the paper describes.
    """
    if modeled:
        return 3
    return max(5, min(400, (1 << 22) // max(size, 64)))


def one_way(api: str, rank: int, buf, count: int, datatype, reps: int,
            trials: int = 1) -> float | None:
    """Best one-way seconds over ``trials`` of ``reps`` round trips.

    Ranks 0 and 1 exchange ``count`` elements of ``datatype`` (spelled
    for ``api``) from ``buf``; other ranks join only the barrier that
    opens each trial.  Rank 1 echoes from a zeroed buffer and rank 0
    receives into another, which must equal ``buf`` once the clock has
    stopped.  Rank 0 returns the time, the others None.

    Neither the waits outside the timed loop nor the timestamps charge
    the virtual clock: rank 1 waits for the first ping and for the
    release in a blocking ``Probe``, so its first charged call lands
    after rank 0's ``t0`` and its last before rank 0's ``t1``.
    """
    if api == "mpijava":
        comm = MPI.COMM_WORLD
        cls = type(comm)
        send, recv, probe, fence = cls.Send, cls.Recv, cls.Probe, cls.Barrier
    elif api == "capi":
        comm = H.COMM_WORLD
        send, recv, probe, fence = (capi.mpi_send, capi.mpi_recv,
                                    capi.mpi_probe, capi.mpi_barrier)
    elif api == "communicator":
        comm = current_runtime().comm_world
        cls = type(comm)
        send, recv, probe = cls.send, cls.recv, cls.probe

        def fence(comm):
            nbc.run(comm, *plan_barrier(comm))
    else:
        raise ValueError(f"unknown api {api!r}")
    back = np.zeros_like(buf)
    if rank:
        buf = back
    best = float("inf")
    for _ in range(trials):
        fence(comm)
        t0 = capi.mpi_wtime()
        if rank == 0:
            for _ in range(reps):
                send(comm, buf, 0, count, datatype, 1, _PING_TAG)
                recv(comm, back, 0, count, datatype, 1, _PONG_TAG)
            t1 = capi.mpi_wtime()
            send(comm, buf, 0, 0, datatype, 1, _RELEASE_TAG)
            best = min(best, (t1 - t0) / (2 * reps))
        elif rank == 1:
            probe(comm, 0, _PING_TAG)
            for _ in range(reps):
                recv(comm, buf, 0, count, datatype, 0, _PING_TAG)
                send(comm, buf, 0, count, datatype, 0, _PONG_TAG)
            probe(comm, 0, _RELEASE_TAG)
            recv(comm, buf, 0, 0, datatype, 0, _RELEASE_TAG)
    if rank != 0:
        return None
    if not np.array_equal(back, buf):
        raise AssertionError(f"{np.count_nonzero(back != buf)} element(s) "
                             f"came back other than rank 0 sent them")
    return best


def _message(size: int, layout: str):
    """(buffer, count, datatype handle) carrying ``size`` data bytes of
    nonzero elements; a strided buffer's gaps are zero."""
    if layout == "contiguous":
        buf = (np.arange(max(size, 1)) % 127 + 1).astype(np.int8)
        return buf, size, H.DT_BYTE
    block = STRIDED_BLOCK_ELEMS
    stride = STRIDED_STRIDE_FACTOR * block
    count = max(1, size // (8 * block))
    full = np.zeros(count * stride)
    full.reshape(count, stride)[:, :block] = \
        np.arange(1.0, count * block + 1).reshape(count, block)
    vec = capi.mpi_type_vector(count, block, stride, H.DT_DOUBLE)
    capi.mpi_type_commit(vec)
    return full[:(count - 1) * stride + block], 1, vec


def sweep(api: str, sizes, reps, layout: str = "contiguous",
          trials: int = 1, eager_limit: int | None = None):
    """SPMD body (module-level: procs-DM ranks import it): :func:`one_way`
    per ``(size, reps)`` pair, ``size`` in data bytes (a ``strided``
    message is one Vector spanning twice that), under a forced
    ``eager_limit`` if one is given.  Every rank returns ``(rows,
    bulk_paths)``: rank 0's ``[(size, one_way_seconds), ...]`` (None
    elsewhere) and where its large payloads go per peer (empty without
    a wire)."""
    if eager_limit is not None:
        wire.set_eager_limit(eager_limit)
    capi.mpi_init([])
    rank = capi.mpi_comm_rank(H.COMM_WORLD)
    rows = []
    for size, n in zip(sizes, reps):
        buf, count, handle = _message(size, layout)
        if api == "mpijava":
            datatype = Datatype(handle)
        elif api == "communicator":
            datatype = H.tables_for(current_runtime()).datatypes.lookup(
                handle)
        else:
            datatype = handle
        rows.append((size, one_way(api, rank, buf, count, datatype, n,
                                   trials)))
        if handle != H.DT_BYTE:
            capi.mpi_type_free(handle)
    transport = current_runtime().universe.transport
    paths = getattr(transport, "bulk_paths", dict)()
    capi.mpi_finalize()
    return (rows if rank == 0 else None), paths


def launch(backend: str, nprocs: int, body, args=(), carrier=None,
           universe=None, timeout: float = 300.0) -> list:
    """Run ``body(*args)`` as one job; returns the per-rank results.

    A thread backend runs over ``universe`` if given (a modeled or
    packetized environment) and restores the eager limit it shares with
    the body.  A ``procs-DM`` ``carrier`` — ``shm`` (bulk paths) or
    ``tcp`` (loopback alone) — pins ``REPRO_SHM`` for the job only."""
    if backend == "procs-DM":
        prev = os.environ.get("REPRO_SHM")
        if carrier is not None:
            os.environ["REPRO_SHM"] = "0" if carrier == "tcp" else "1"
        try:
            with ProcExecutor(nprocs) as ex:
                return ex.run(body, args=args, timeout=timeout)
        finally:
            if prev is None:
                os.environ.pop("REPRO_SHM", None)
            else:
                os.environ["REPRO_SHM"] = prev
    if backend not in BACKENDS:
        raise ValueError(f"unknown backend {backend!r} (have {BACKENDS})")
    prev = wire.eager_limit()
    try:
        with MPIExecutor(nprocs, universe=universe, transport="inproc"
                         if backend == "threads-SM" else "socket") as ex:
            return ex.run(body, args=args, timeout=timeout)
    finally:
        wire.set_eager_limit(prev)


def measure(backend: str, api: str, sizes, reps, layout="contiguous",
            trials: int = 1, eager_limit=None, carrier=None, universe=None):
    """:func:`sweep` as a 2-rank job: (rank 0's rows, every rank's bulk
    paths in one dict)."""
    ranks = launch(backend, 2, sweep, (api, tuple(sizes), tuple(reps),
                                       layout, trials, eager_limit),
                   carrier, universe)
    return ranks[0][0], {k: v for _, paths in ranks for k, v in paths.items()}


def run_pingpong(env, sizes=(1,), reps: int | None = None) \
        -> PingPongResult:
    """Run the PingPong sweep in one benchmark environment.

    ``env`` is a :class:`~repro.bench.environments.BenchEnv`; the result
    carries one-way times per message size.
    """
    from repro.bench import environments as E
    result = PingPongResult(env=env.key, api=env.api)
    if env.api == "raw":
        rows = E.run_raw(env, sizes, reps)
    else:
        rows, _ = measure(f"threads-{env.mode}", env.api, sizes,
                          [reps or default_reps(s, env.modeled)
                           for s in sizes],
                          universe=E.build_universe(env))
    for size, one_way_s in rows:
        result.add(size, one_way_s)
    return result
