"""No collective finishes with a send of its own still parked.

A contribution at or above the eager limit travels by rendezvous: the
sender parks the payload behind an RTS.  ``coll_send`` used to drop the
request, so a 4 MiB ``Allreduce`` (chunks of 1 MiB and more) or an
``Alltoall`` of 1 MiB blocks could return — and the rank reach
``Finalize`` — with its payload parked and its failure unseen.  A round
now ends only when its sends have flushed (``nbc/progress.py``): on
every carrier the rendezvous table is empty when the call returns, every
RTS has had its CTS or DONE, results are exact, and a receiver that dies
after the RTS fails the *sender's* collective.
"""

from __future__ import annotations

import time

import numpy as np
import pytest

from repro import mpirun, procrun
from repro.executor.runner import RankFailure
from repro.mpijava import MPI, MPIException

NPROCS = 4
TIMEOUT = 60.0
BIG = (4 << 20) // 8            # doubles in a 4 MiB vector
BLOCK = (1 << 20) // 8          # doubles in a 1 MiB Alltoall block
OVER_LANE = (5 << 20) // 8      # fits no bulk lane whole: always an RTS

#: the procs-DM bulk paths: (REPRO_SHM, every rank's probe denied?)
CARRIERS = {"get": ("1", False), "ring": ("1", True), "socket": ("0", False)}


def _deny_probes(nprocs: int) -> str:
    return ",".join(f"cma.probe:{r}::deny" for r in range(nprocs))


def _parked_and_counters():
    """This rank's parked rendezvous sends, and (between two barriers:
    every rank is back from the collective, none has started the next —
    rank-threads share the counters) the RTS / CTS counts as this
    process sees them."""
    from repro.runtime.engine import current_runtime
    rt = current_runtime()
    transport = rt.universe.transport
    parked = len(transport._rndv[rt.world_rank].out)
    MPI.COMM_WORLD.Barrier()
    stats = transport.wire_stats.snapshot()
    MPI.COMM_WORLD.Barrier()
    return parked, stats["rts_frames"], stats["cts_frames"]


def large_collectives_body():
    from repro.runtime.collective import algorithm_overrides
    MPI.Init([])
    w = MPI.COMM_WORLD
    me, p = w.Rank(), w.Size()
    tri = p * (p + 1) // 2
    out = []
    base = np.arange(BIG, dtype=np.float64) % 1000
    for algorithm in ("reduce_bcast", "ring"):
        result = np.zeros(BIG)
        with algorithm_overrides(allreduce=algorithm):
            w.Allreduce(base * (me + 1), 0, result, 0, BIG, MPI.DOUBLE,
                        MPI.SUM)
        out.append((bool(np.array_equal(result, base * tri)),
                    *_parked_and_counters()))
    blocks = np.repeat(np.arange(p, dtype=np.float64) + me * p, BLOCK)
    got = np.zeros(p * BLOCK)
    w.Alltoall(blocks, 0, BLOCK, MPI.DOUBLE, got, 0, BLOCK, MPI.DOUBLE)
    out.append((bool(np.array_equal(
        got, np.repeat(np.arange(p, dtype=np.float64) * p + me, BLOCK))),
        *_parked_and_counters()))
    MPI.Finalize()
    return out


def _check_nothing_parked(per_rank, expect_rts: bool) -> None:
    for rank_out in per_rank:
        for exact, parked, rts, cts in rank_out:
            assert exact
            assert parked == 0, f"{parked} payload(s) parked at return"
            assert rts == cts, f"{rts} RTS sent, {cts} CTS/DONE seen"
    if expect_rts:
        assert per_rank[0][-1][2] > 0, "no payload took the rendezvous"


class TestNoSendLeftParked:
    def test_thread_sockets(self):
        _check_nothing_parked(
            mpirun(NPROCS, large_collectives_body, transport="socket",
                   timeout=TIMEOUT), expect_rts=True)

    @pytest.mark.parametrize("carrier", sorted(CARRIERS))
    def test_process_backend(self, carrier, monkeypatch):
        shm, denied = CARRIERS[carrier]
        monkeypatch.setenv("REPRO_SHM", shm)
        if denied:
            monkeypatch.setenv("REPRO_FAULT", _deny_probes(NPROCS))
        else:
            monkeypatch.delenv("REPRO_FAULT", raising=False)
        # (a denied pair's chunk fits the lane whole and stays eager)
        _check_nothing_parked(
            procrun(NPROCS, large_collectives_body, timeout=TIMEOUT),
            expect_rts=not denied)


def receiver_dies_body():
    """Rank 0's whole ``Reduce`` is one send to the root — rank 1, which
    never receives it: it dies on its way into ``Finalize``."""
    MPI.Init([])
    w = MPI.COMM_WORLD
    w.Errhandler_set(MPI.ERRORS_RETURN)
    if w.Rank() == 1:
        time.sleep(0.3)             # the RTS is here, unmatched
        MPI.Finalize()              # REPRO_FAULT=finalize:1
        return "unreachable"
    mine, unused = np.ones(OVER_LANE), np.zeros(1)
    with pytest.raises(MPIException) as ei:
        w.Reduce(mine, 0, unused, 0, OVER_LANE, MPI.DOUBLE, MPI.SUM, 1)
    assert ei.value.error_code == MPI.ERR_PROC_FAILED, ei.value
    MPI.Finalize()
    return "sender saw it"


class TestReceiverDiesAfterTheRts:
    def test_thread_sockets(self, monkeypatch):
        monkeypatch.setenv("REPRO_FAULT", "finalize:1")
        with pytest.raises(RankFailure) as ei:
            mpirun(2, receiver_dies_body, transport="socket",
                   timeout=TIMEOUT)
        assert set(ei.value.failures) == {1}, ei.value.failures

    @pytest.mark.parametrize("carrier", sorted(CARRIERS))
    def test_process_backend(self, carrier, monkeypatch):
        shm, denied = CARRIERS[carrier]
        monkeypatch.setenv("REPRO_SHM", shm)
        monkeypatch.setenv("REPRO_HEARTBEAT_MS", "100")
        monkeypatch.setenv("REPRO_FAULT", "finalize:1" + (
            "," + _deny_probes(2) if denied else ""))
        with pytest.raises(RankFailure) as ei:
            procrun(2, receiver_dies_body, timeout=TIMEOUT)
        assert set(ei.value.failures) == {1}, ei.value.failures
