"""Runtime tracing end to end on the thread backends.

Covers the tentpole's instrumentation points where they are cheapest to
drive: the rendezvous protocol on threads-DM, mailbox match accounting,
collective rounds, and the modeled-mode determinism guarantee
(two identical VirtualClock runs emit byte-identical merged traces).
"""

import json

import numpy as np
import pytest

from repro.executor.runner import MPIExecutor
from repro.jni import capi, handles as H
from repro.obs import export
from repro.obs.trace import TRACE
from repro.runtime.engine import Universe
from repro.transport.inproc import InprocTransport
from repro.transport.modeled import ModeledTransport
from repro.transport.netmodel import ENVIRONMENTS
from repro.util.clock import VirtualClock


@pytest.fixture
def tracing():
    """In-memory tracing for the duration of one test."""
    TRACE.reset()
    TRACE.enable()
    yield TRACE
    TRACE.disable()
    TRACE.reset()


def _names(snap, rank):
    return [e[3] for e in snap.get(rank, {"events": []})["events"]]


def _events(snap, rank, name):
    return [e for e in snap.get(rank, {"events": []})["events"]
            if e[3] == name]


class TestRendezvousTrace:
    def test_2mib_send_traces_the_full_rts_cts_rndv_handshake(self, tracing):
        nbytes = 2 * 1024 * 1024

        def body():
            rank = capi.mpi_comm_rank(H.COMM_WORLD)
            buf = np.zeros(nbytes, dtype=np.int8)
            if rank == 0:
                capi.mpi_send(H.COMM_WORLD, buf, 0, nbytes, H.DT_BYTE,
                              1, 5)
            else:
                capi.mpi_recv(H.COMM_WORLD, buf, 0, nbytes, H.DT_BYTE,
                              0, 5)

        with MPIExecutor(2, transport="socket") as ex:
            ex.run(body)
        snap = TRACE.snapshot()

        # sender lane: the RTS announcement and the whole-handshake span
        assert _events(snap, 0, "wire.rts"), _names(snap, 0)
        rndv = _events(snap, 0, "wire.rndv")
        assert rndv and rndv[0][0] == "X"
        assert rndv[0][6]["bytes"] == nbytes
        assert _events(snap, 0, "wire.flush")

        # receiver lane: the payload landing span
        land = _events(snap, 1, "wire.rndv_land")
        assert land and land[0][6]["bytes"] == nbytes

        # the CTS instant lands on the granting (receiver) side's pump
        all_cts = _events(snap, 0, "wire.cts") + _events(snap, 1,
                                                         "wire.cts")
        assert all_cts

        # the receiver's mailbox match is flagged as an RTS match
        matches = _events(snap, 1, "mailbox.match")
        assert any(m[6]["rts"] for m in matches)
        assert all(m[6]["dwell_us"] >= 0 for m in matches)

    def test_small_send_traces_the_eager_path(self, tracing):
        def body():
            rank = capi.mpi_comm_rank(H.COMM_WORLD)
            buf = np.zeros(512, dtype=np.int8)
            if rank == 0:
                capi.mpi_send(H.COMM_WORLD, buf, 0, 512, H.DT_BYTE, 1, 5)
            else:
                capi.mpi_recv(H.COMM_WORLD, buf, 0, 512, H.DT_BYTE, 0, 5)

        with MPIExecutor(2, transport="socket") as ex:
            ex.run(body)
        snap = TRACE.snapshot()
        assert _events(snap, 0, "wire.eager")
        assert not _events(snap, 0, "wire.rts")


class TestMailboxMatchTrace:
    def test_posted_vs_unexpected_paths_are_distinguished(self, tracing):
        def body():
            rank = capi.mpi_comm_rank(H.COMM_WORLD)
            buf = np.zeros(8, dtype=np.int8)
            if rank == 0:
                # tag 1 arrives before its recv is posted -> unexpected
                capi.mpi_send(H.COMM_WORLD, buf, 0, 8, H.DT_BYTE, 1, 1)
                capi.mpi_barrier(H.COMM_WORLD)
            else:
                capi.mpi_barrier(H.COMM_WORLD)
                capi.mpi_recv(H.COMM_WORLD, buf, 0, 8, H.DT_BYTE, 0, 1)

        with MPIExecutor(2) as ex:
            ex.run(body)
        snap = TRACE.snapshot()
        paths = {m[6]["path"] for m in _events(snap, 1, "mailbox.match")}
        assert "unexpected" in paths


class TestCollectiveTrace:
    def test_large_bcast_traces_binomial_rounds(self, tracing):
        count = 512 * 1024      # 512 KiB of bytes >= LARGE_MESSAGE_BYTES
        nprocs = 4

        def body():
            buf = np.zeros(count, dtype=np.int8)
            capi.mpi_bcast(H.COMM_WORLD, buf, 0, count, H.DT_BYTE, 0)

        with MPIExecutor(nprocs) as ex:
            ex.run(body)
        snap = TRACE.snapshot()

        algo = _events(snap, 0, "coll.algo")
        assert algo and algo[0][6]["algorithm"] == "binomial"
        # a large message is not cut up: the deepest rank (2 receives
        # from the root, forwards to 3) runs log2 p communication rounds
        # plus the landing, and no rank runs more
        depth = {r: len(_events(snap, r, "Bcast.round"))
                 for r in range(nprocs)}
        assert depth[2] == max(depth.values()) == 2 + 1, depth
        whole = _events(snap, 2, "coll.Bcast")
        assert whole and whole[0][6]["rounds"] == 3

    def test_small_bcast_traces_binomial(self, tracing):
        def body():
            buf = np.zeros(16, dtype=np.int8)
            capi.mpi_bcast(H.COMM_WORLD, buf, 0, 16, H.DT_BYTE, 0)

        with MPIExecutor(2) as ex:
            ex.run(body)
        algo = _events(TRACE.snapshot(), 0, "coll.algo")
        assert algo and algo[0][6]["algorithm"] == "binomial"


class TestDatapathCounters:
    def test_strided_wire_send_counts_iovec(self, tracing):
        from repro.datatypes.packing import DATAPATH
        before = DATAPATH.snapshot()

        def body():
            rank = capi.mpi_comm_rank(H.COMM_WORLD)
            # 512 runs of 128 doubles (1 KiB each): inside WIRE_IOV_CAP
            # and above the min average run size, so the IR ships an
            # iovec instead of gather-copying
            vec = capi.mpi_type_vector(512, 128, 256, H.DT_DOUBLE)
            capi.mpi_type_commit(vec)
            buf = np.zeros(512 * 256, dtype=np.float64)
            if rank == 0:
                capi.mpi_send(H.COMM_WORLD, buf, 0, 1, vec, 1, 9)
            else:
                capi.mpi_recv(H.COMM_WORLD, buf, 0, 1, vec, 0, 9)
            capi.mpi_type_free(vec)

        with MPIExecutor(2, transport="socket") as ex:
            ex.run(body)
        after = DATAPATH.snapshot()
        assert after["send_iovec"] > before["send_iovec"]


class TestModeledDeterminism:
    """Two identical modeled runs -> byte-identical merged traces.

    One rank on a VirtualClock: a single thread records every event, so
    both the event sequence and every timestamp are functions of the
    program alone.  (Multi-rank thread backends interleave freely — the
    posted-vs-unexpected match path is scheduling-dependent there by
    design, so the determinism guarantee is scoped to modeled mode.)
    """

    @staticmethod
    def _one_run(tmp_path, tag):
        clock = VirtualClock()
        model = ENVIRONMENTS["WMPI_SM"]
        transport = ModeledTransport(1, model, clock,
                                     inner=InprocTransport(1))
        universe = Universe(1, transport=transport, clock=clock)

        def body():
            capi.mpi_init([])
            buf = np.arange(64, dtype=np.float64)
            out = np.zeros(64, dtype=np.float64)
            capi.mpi_isend(H.COMM_WORLD, buf, 0, 64, H.DT_DOUBLE, 0, 3)
            capi.mpi_recv(H.COMM_WORLD, out, 0, 64, H.DT_DOUBLE, 0, 3)
            capi.mpi_bcast(H.COMM_WORLD, out, 0, 64, H.DT_DOUBLE, 0)
            capi.mpi_barrier(H.COMM_WORLD)
            capi.mpi_finalize()

        with MPIExecutor(1, universe=universe) as ex:
            ex.run(body)
        out_dir = tmp_path / tag
        export.dump_job_trace(str(out_dir), TRACE.snapshot(reset=True))
        return (out_dir / "trace.json").read_bytes()

    def test_identical_runs_merge_byte_identical(self, tracing, tmp_path):
        a = self._one_run(tmp_path, "a")
        b = self._one_run(tmp_path, "b")
        assert a == b
        obj = json.loads(a)
        assert export.validate_chrome(obj) == []
        names = {e.get("name") for e in obj["traceEvents"]}
        assert "mailbox.match" in names
