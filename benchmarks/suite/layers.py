"""Per-layer measurements: each layer timed from outside, through its
public functions.

The ladder is the paper's Table 1 method: the same 8-byte pingpong
entered one layer deeper each time, the differences being what each
binding layer adds.  The rest times single layers in isolation — the
datapath helpers, the envelope codec, a standalone ``Mailbox``, the
request state machine, the reduction kernel, the collectives of the
``coll_mix_tcp`` round, each carrier driven as a bare ``Transport``, and
the executors — with two floors (socketpair echo, memcpy) measured in the
same run so that achieved/floor ratios have their base beside them.
Nothing here is gated; layer names are the program's module names.
"""

from __future__ import annotations

import queue
import socket
import statistics
import sys
import threading
import time

import numpy as np

import harness
import inputs
from bodies import TAG_ACK, TAG_PING
from spans import durations_us

from repro.datatypes import derived, primitives as P
from repro.datatypes.object_serial import (deserialize_objects,
                                           serialize_objects)
from repro.errors import SUCCESS
from repro.executor.procrunner import ProcExecutor
from repro.executor.runner import (JobTimeoutError, MPIExecutor,
                                   RankFailure)
from repro.jni import capi, handles as H
from repro.mpijava import MPI, Request
from repro.runtime import envelope as ev, reduce_ops
from repro.runtime.buffers import extract_send_payload, land_payload
from repro.runtime.consts import ANY_SOURCE, ANY_TAG
from repro.runtime.engine import current_runtime
from repro.runtime.mailbox import Mailbox
from repro.runtime.requests import RequestImpl
from repro.transport.inproc import InprocTransport
from repro.transport.shm import (ShmChannel, ShmSegment, segment_name,
                                 shm_world)
from repro.transport.socket_tcp import SocketTransport

_pc = time.perf_counter
MiB = 1 << 20


def _count(base: int, scale: float, floor: int = 3) -> int:
    return max(floor, round(base * scale))


def _per_call_us(fn, calls: int, batches: int = 5) -> float:
    """Median over batches of the mean time of one ``fn()`` call."""
    out = []
    for _ in range(batches):
        t0 = _pc()
        for _ in range(calls):
            fn()
        out.append((_pc() - t0) / calls * 1e6)
    return statistics.median(out)


# ---------------------------------------------------------------------------
# the ladder: 8 B blocking pingpong on two rank-threads, three entry points
# ---------------------------------------------------------------------------

def _rung_mpijava(rank, peer, buf):
    world = MPI.COMM_WORLD
    if rank == 0:
        world.Send(buf, 0, 8, MPI.BYTE, peer, 1)
        world.Recv(buf, 0, 8, MPI.BYTE, peer, 2)
    else:
        world.Recv(buf, 0, 8, MPI.BYTE, peer, 1)
        world.Send(buf, 0, 8, MPI.BYTE, peer, 2)


def _rung_capi(rank, peer, buf):
    if rank == 0:
        capi.mpi_send(H.COMM_WORLD, buf, 0, 8, H.DT_BYTE, peer, 1)
        capi.mpi_recv(H.COMM_WORLD, buf, 0, 8, H.DT_BYTE, peer, 2)
    else:
        capi.mpi_recv(H.COMM_WORLD, buf, 0, 8, H.DT_BYTE, peer, 1)
        capi.mpi_send(H.COMM_WORLD, buf, 0, 8, H.DT_BYTE, peer, 2)


def _rung_communicator(rank, peer, buf):
    comm = current_runtime().comm_world     # CommImpl.send/recv + wait
    if rank == 0:
        comm.send(buf, 0, 8, P.BYTE, peer, 1)
        comm.recv(buf, 0, 8, P.BYTE, peer, 2)
    else:
        comm.recv(buf, 0, 8, P.BYTE, peer, 1)
        comm.send(buf, 0, 8, P.BYTE, peer, 2)


_RUNGS = (("ladder.mpijava_us", _rung_mpijava),
          ("ladder.capi_us", _rung_capi),
          ("ladder.communicator_us", _rung_communicator))


def _ladder_body(blocks: int, trips: int):
    """Rungs interleaved block by block, so drift hits all three alike;
    rank 0 returns every round-trip time per rung."""
    MPI.Init([])
    rank = MPI.COMM_WORLD.Rank()
    peer = 1 - rank
    buf = np.zeros(8, dtype=np.int8)
    times = {name: [] for name, _ in _RUNGS}
    for name, rung in _RUNGS:               # warm every path once
        rung(rank, peer, buf)
    for _ in range(blocks):
        for name, rung in _RUNGS:
            row = times[name]
            for _ in range(trips):
                t0 = _pc()
                rung(rank, peer, buf)
                row.append(_pc() - t0)
    MPI.Finalize()
    return times if rank == 0 else None


def _queue_echo_us(trips: int) -> float:
    """One-way time of an 8-byte echo over two bare queues between two
    threads: the floor under every rank-thread handoff."""
    ping: queue.SimpleQueue = queue.SimpleQueue()
    pong: queue.SimpleQueue = queue.SimpleQueue()

    def echo():
        while (item := ping.get()) is not None:
            pong.put(bytes(item))

    t = threading.Thread(target=echo, daemon=True)
    t.start()
    payload = bytes(8)
    times = []
    for _ in range(trips):
        t0 = _pc()
        ping.put(payload)
        pong.get()
        times.append(_pc() - t0)
    ping.put(None)
    t.join()
    return statistics.median(times) / 2 * 1e6


def ladder(scale: float) -> dict:
    blocks, trips = 24, _count(100, scale)
    with MPIExecutor(2, transport="inproc") as ex:
        times = ex.run(_ladder_body, args=(blocks, trips), timeout=60.0)[0]
    out = {name: statistics.median(row) / 2 * 1e6
           for name, row in times.items()}
    out["floor.queue_echo_us"] = _queue_echo_us(blocks * trips)
    out["mpijava.wrap_us"] = out["ladder.mpijava_us"] - out["ladder.capi_us"]
    out["capi.stub_us"] = out["ladder.capi_us"] \
        - out["ladder.communicator_us"]
    out["communicator.path_us"] = out["ladder.communicator_us"] \
        - out["floor.queue_echo_us"]
    return out


# ---------------------------------------------------------------------------
# datapath, codec, matching, requests, reduction: single layers in isolation
# ---------------------------------------------------------------------------

def datapath(scale: float) -> dict:
    n = _count(4000, scale)
    small = np.zeros(8, dtype=np.int8)
    arrived = ev.Envelope(payload=np.ones(8, dtype=np.int8), nelems=8)
    out = {
        "buffers.extract_8B_us": _per_call_us(
            lambda: extract_send_payload(small, 0, 8, P.BYTE), n),
        "buffers.land_8B_us": _per_call_us(
            lambda: land_payload(small, 0, 8, P.BYTE, arrived), n),
    }
    # the pp_large_shm Vector: 4 MiB of data at 50 % density
    vec = derived.vector(inputs.VEC_COUNT, inputs.VEC_BLOCK,
                         inputs.VEC_STRIDE, P.DOUBLE)
    lay = vec.layout()
    buf = inputs.strided_buffer(None)
    nelems = inputs.LARGE_BYTES // 8
    dense = np.zeros(nelems)
    reps = _count(20, scale)
    mb = inputs.LARGE_BYTES / 1e6
    out["layout.gather_strided_MBps"] = mb / _per_call_us(
        lambda: lay.gather(buf, 0, 1), reps) * 1e6
    out["layout.scatter_strided_MBps"] = mb / _per_call_us(
        lambda: lay.scatter(buf, 0, 1, dense), reps) * 1e6
    out["layout.byte_views_us"] = _per_call_us(
        lambda: lay.byte_views(buf, 0, nelems), _count(400, scale))
    # the taskfarm dict with a blob of the mean size
    task = {"id": 1, "op": "crc32",
            "blob": bytes((inputs.TASK_BLOB_MIN + inputs.TASK_BLOB_MAX) // 2)}
    blob = serialize_objects([task])
    out["object_serial.dumps_us"] = _per_call_us(
        lambda: serialize_objects([task]), n)
    out["object_serial.loads_us"] = _per_call_us(
        lambda: deserialize_objects(blob), n)
    return out


def codec(scale: float) -> dict:
    n = _count(4000, scale)
    env = ev.Envelope(src=0, dst=1, tag=5, seq=9,
                      payload=np.zeros(8, dtype=np.int8), nelems=8)
    header, body = ev.encode(env)
    body = bytearray(body)        # writable, like the pump's pooled buffer
    return {"envelope.encode_us": _per_call_us(lambda: ev.encode(env), n),
            "envelope.decode_us": _per_call_us(
                lambda: ev.decode(header, body), n)}


class _NoJob:
    """The slice of ``Universe`` a standalone Mailbox / RequestImpl needs
    (as ``tests/unit/test_mailbox.py`` builds it)."""

    def check_abort(self):
        pass

    def add_abort_listener(self, fn):
        return False

    def remove_abort_listener(self, fn):
        pass


def _land(env):
    return env.nelems, SUCCESS, ""


def matching(scale: float) -> dict:
    n = _count(2000, scale)
    job = _NoJob()
    mb = Mailbox(0, job)
    payload = np.zeros(8, dtype=np.int8)

    def message():
        return ev.Envelope(src=1, dst=0, tag=5, payload=payload, nelems=8)

    def post(source=1, tag=5):
        mb.post_recv(RequestImpl(job, RequestImpl.KIND_RECV), source, tag,
                     0, _land)

    def posted_first():
        post()
        mb.deliver(message())

    def unexpected_first():
        mb.deliver(message())
        post()

    def wildcard():
        post(ANY_SOURCE, ANY_TAG)
        mb.deliver(message())

    def depth64():
        for _ in range(64):
            post()
        for _ in range(64):
            mb.deliver(message())

    return {
        "mailbox.match_posted_us": _per_call_us(posted_first, n),
        "mailbox.match_unexpected_us": _per_call_us(unexpected_first, n),
        "mailbox.match_wild_us": _per_call_us(wildcard, n),
        # per message, with 64 receives queued when the first arrives
        "mailbox.match_depth64_us":
            _per_call_us(depth64, max(3, n // 64)) / 64,
    }


def request_state(scale: float) -> dict:
    job = _NoJob()

    def same_thread():
        req = RequestImpl(job, RequestImpl.KIND_RECV)
        req.complete()
        req.wait()

    out = {"requests.complete_wait_us":
           _per_call_us(same_thread, _count(4000, scale))}
    # wake: complete() in one thread until wait() returns in another
    handoff: queue.SimpleQueue = queue.SimpleQueue()
    fired = [0.0]

    def completer():
        while (req := handoff.get()) is not None:
            time.sleep(20e-6)     # let the waiter block first
            fired[0] = _pc()
            req.complete()

    t = threading.Thread(target=completer, daemon=True)
    t.start()
    wakes = []
    for _ in range(_count(1500, scale)):
        req = RequestImpl(job, RequestImpl.KIND_RECV)
        handoff.put(req)
        req.wait()
        wakes.append(_pc() - fired[0])
    handoff.put(None)
    t.join()
    out["requests.wake_us"] = statistics.median(wakes) * 1e6
    return out


def reduction(scale: float) -> dict:
    a = np.ones(inputs.COLL_LARGE)
    b = np.ones(inputs.COLL_LARGE)
    us = _per_call_us(lambda: reduce_ops.SUM.reduce_dense(a, b, P.DOUBLE),
                      _count(1000, scale))
    return {"reduce_ops.sum_f64_MBps": a.nbytes / us}


# ---------------------------------------------------------------------------
# the collectives of the coll_mix_tcp round, each call timed on rank 0
# ---------------------------------------------------------------------------

def collectives(scale: float, seed: int) -> dict:
    wl = harness.BY_NAME["coll_mix_tcp"]
    seg = harness.run_segment(wl, _count(60, scale), seed, 99, True, 60.0)
    if not seg["ok"]:
        raise RuntimeError(f"collective layer job failed: {seg['error']}")
    rank0 = seg["spans"][0]

    def med(name, pick=slice(None)):
        return float(np.median(durations_us(rank0, name)[pick]))

    return {
        "collective.barrier_us": med("Barrier"),
        "collective.bcast_8B_us": med("Bcast"),
        # two Allreduce calls per round: the 8 B one, then the 256 KiB one
        "collective.allreduce_8B_us": med("Allreduce", slice(0, None, 2)),
        "collective.allreduce_256KiB_us":
            med("Allreduce", slice(1, None, 2)),
        "collective.alltoall_4KiB_us": med("Alltoall"),
    }


# ---------------------------------------------------------------------------
# carriers as bare Transports: envelopes in, deliver callback out
# ---------------------------------------------------------------------------

class _Endpoint:
    """What a bare transport delivers into: arrivals go to a queue.  A
    rendezvous request-to-send is accepted with this object standing in
    for the posted receive (views of a landing buffer, a ``complete``)."""

    def __init__(self, landing: np.ndarray):
        self.arrived: queue.SimpleQueue = queue.SimpleQueue()
        self._landing = memoryview(landing).cast("B")
        self.req = self

    def deliver(self, env) -> None:
        if env.kind == ev.KIND_RTS:
            env.rndv_accept(self)
        else:
            self.arrived.put(env.nelems)

    def recv_views(self, env):
        return [self._landing[:env.rndv_nbytes]]

    def land(self, env):
        return env.nelems, SUCCESS, ""

    def complete(self, count_elements=0, **_):
        self.arrived.put(count_elements)


def _carrier(transport, scale: float, prefix: str) -> dict:
    """8 B echo, 4 MiB echo and a 1 KiB one-way stream over ``transport``
    (ranks 0 and 1, both hosted here)."""
    big = np.zeros(4 * MiB, dtype=np.int8)
    ends = [_Endpoint(np.empty_like(big)) for _ in range(2)]
    for rank, end in enumerate(ends):
        transport.set_deliver(rank, end.deliver)
    transport.start()
    seq = iter(range(1, 1 << 30))

    def send(src, payload):
        transport.send(ev.Envelope(src=src, dst=1 - src, seq=next(seq),
                                   payload=payload,
                                   nelems=len(payload)))

    def echo():
        while (n := ends[1].arrived.get()) is not None:
            send(1, big[:n])

    t = threading.Thread(target=echo, daemon=True)
    t.start()

    def trip(payload):
        t0 = _pc()
        send(0, payload)
        ends[0].arrived.get()
        return _pc() - t0

    out = {}
    try:
        small = np.zeros(8, dtype=np.int8)
        trip(small)
        trips = [trip(small) for _ in range(_count(1500, scale))]
        out[f"{prefix}.echo_8B_us"] = statistics.median(trips) / 2 * 1e6
        if prefix != "inproc":
            trip(big)
            trips = [trip(big) for _ in range(_count(30, scale))]
            out[f"{prefix}.echo_4MiB_MBps"] = \
                big.nbytes / (statistics.median(trips) / 2) / 1e6
    finally:
        ends[1].arrived.put(None)
        t.join()
    if prefix != "inproc":
        # one-way stream: n back-to-back 1 KiB envelopes, timed until the
        # last one has been delivered
        n = _count(3000, scale)
        kib = np.zeros(1024, dtype=np.int8)
        t0 = _pc()
        for _ in range(n):
            send(0, kib)
        for _ in range(n):
            ends[1].arrived.get()
        out[f"{prefix}.stream_1KiB_msgs_per_s"] = n / (_pc() - t0)
    return out


def _ring_copy_MBps(scale: float) -> float:
    """Bytes through one shared ring, written then read by one thread:
    the two copies every shm frame pays, without any waiting."""
    seg = ShmSegment(segment_name(f"bench{time.monotonic_ns():x}", 0, 1),
                     create=True)
    try:
        chan = ShmChannel(seg, 0, 1)
        src = np.ones(MiB, dtype=np.int8)
        dst = memoryview(np.empty(MiB, dtype=np.int8)).cast("B")

        def through():
            chan.sendall(src)
            got = 0
            while got < MiB:
                got += chan.recv_into(dst[got:])

        return MiB / _per_call_us(through, _count(60, scale))
    finally:
        seg.close()


class StreamBroke(Exception):
    """The cross-process shm stream died after this many whole windows."""


def _xproc_stream_body(windows: int):
    """Windows of 64 x 1 KiB Isend against Irecv, acked one by one; a
    rank whose stream breaks reports how far it got by raising
    StreamBroke(count)."""
    MPI.Init([])
    world = MPI.COMM_WORLD
    rank = world.Rank()
    W, B = inputs.WINDOW, inputs.MSG_BYTES
    slots = np.zeros(W * B, dtype=np.int8)
    ack = np.zeros(8, dtype=np.int8)
    done = 0
    try:
        for done in range(windows):
            if rank == 0:
                reqs = [world.Isend(slots, k * B, B, MPI.BYTE, 1, TAG_PING)
                        for k in range(W)]
                Request.Waitall(reqs)
                world.Recv(ack, 0, 8, MPI.BYTE, 1, TAG_ACK)
            else:
                reqs = [world.Irecv(slots, k * B, B, MPI.BYTE, 0, TAG_PING)
                        for k in range(W)]
                Request.Waitall(reqs)
                world.Send(ack, 0, 8, MPI.BYTE, 0, TAG_ACK)
        done = windows
        world.Barrier()
    except Exception as exc:
        raise StreamBroke(done) from exc
    MPI.Finalize()
    return done



def xproc_stream_windows_ok(scale: float) -> float:
    """Quarantined probe: windows of 64 x 1 KiB completed out of 2 000
    over procs-DM/shm before the job aborts (see README: the shm ring
    counters are not published atomically across processes)."""
    windows = _count(2000, scale)
    with harness.pinned_env(REPRO_SHM="1"):
        try:
            with ProcExecutor(2) as ex:
                return float(ex.run(_xproc_stream_body, args=(windows,),
                                    timeout=30.0)[0])
        except RankFailure as exc:
            counts = {rank: f.args[0] for rank, f in exc.failures.items()
                      if isinstance(f, StreamBroke)}
            if not counts:
                raise
            return float(counts.get(0, min(counts.values())))
        except JobTimeoutError as exc:
            # wedged instead of aborting: no rank got to say how far
            print(f"# shm cross-process probe hung: {exc}", file=sys.stderr)
            return 0.0


def carriers(scale: float) -> dict:
    out = {}
    for prefix, make in (("inproc", lambda: InprocTransport(2)),
                         ("tcp", lambda: SocketTransport(2)),
                         ("shm", lambda: shm_world(2))):
        transport = make()
        try:
            out.update(_carrier(transport, scale, prefix))
        finally:
            transport.close()
    out["shm.ring_copy_MBps"] = _ring_copy_MBps(scale)
    return out


# ---------------------------------------------------------------------------
# floors and executors
# ---------------------------------------------------------------------------

def floors(scale: float) -> dict:
    a, b = socket.socketpair()

    def echo():
        while data := b.recv(8):
            b.sendall(data)

    t = threading.Thread(target=echo, daemon=True)
    t.start()
    times = []
    for _ in range(_count(2000, scale)):
        t0 = _pc()
        a.sendall(b"12345678")
        a.recv(8)
        times.append(_pc() - t0)
    a.close()
    t.join()
    b.close()
    src = np.ones(4 * MiB, dtype=np.int8)
    dst = np.empty_like(src)
    us = _per_call_us(lambda: np.copyto(dst, src), _count(40, scale))
    return {"floor.socketpair_echo_us": statistics.median(times) / 2 * 1e6,
            "floor.memcpy_MBps": src.nbytes / us}


def _noop():
    return None


def executors(scale: float) -> dict:
    """Whole no-op jobs: construction, spawn/bootstrap, teardown."""
    out = {}
    with harness.pinned_env(REPRO_SHM="1"):
        for ranks in (2, 4):
            t0 = _pc()
            with ProcExecutor(ranks) as ex:
                ex.run(_noop, timeout=60.0)
            out[f"executor.spawn{ranks}_s"] = _pc() - t0
    jobs = []
    for _ in range(_count(20, scale)):
        t0 = _pc()
        with MPIExecutor(4, transport="inproc") as ex:
            ex.run(_noop, timeout=60.0)
        jobs.append(_pc() - t0)
    out["executor.threads_job_s"] = statistics.median(jobs)
    return out


def laplace_serial_s(scale: float, seed: int) -> dict:
    wl = harness.BY_NAME["laplace_sm"]
    n = wl.extra["n"]
    left = inputs.laplace_boundary(inputs.rng(seed, wl.name, 0), n)
    t0 = _pc()
    inputs.laplace_serial(left, n, harness.scaled_ops(wl, scale))
    return {"laplace.serial_s": _pc() - t0}


def measure_all(scale: float, seed: int) -> dict:
    """Every workload-independent per-layer metric, by name."""
    out = {}
    # on one CPU, as the workloads' jobs are (harness.one_cpu)
    with harness.one_cpu():
        for part in (ladder(scale), datapath(scale), codec(scale),
                     matching(scale), request_state(scale),
                     reduction(scale), collectives(scale, seed),
                     carriers(scale), floors(scale), executors(scale),
                     laplace_serial_s(scale, seed)):
            out.update(part)
    # the probe alone keeps both: the race it counts needs the two ranks
    # to run at the same moment
    out["shm.xproc_stream_windows_ok"] = xproc_stream_windows_ok(scale)
    return out
