"""Acceptance: a traced 4-rank procs-DM run produces one merged trace.

The criterion from the issue, verbatim: with ``REPRO_TRACE`` set, a
4-rank process-backend job whose program includes one >= 2 MiB send and
one large Bcast must yield a single merged Chrome-trace JSON containing

* the RTS/CTS/rendezvous span for the big send,
* the mailbox match event with its dwell time, and
* per-segment collective rounds from the Bcast,

and the file must pass the structural validator.  Workers inherit
``REPRO_TRACE`` from the environment, snapshot their rings at exit, and
ship them to the launcher over the control plane; the launcher merges
at finalize.
"""

import json
import os

import numpy as np
import pytest

from repro import procrun
from repro.mpijava import MPI
from repro.obs import export

NPROCS = 4
TIMEOUT = 120.0
#: above the 1 MiB eager limit, and too big to sit in a same-host
#: pair's 4 MiB bulk lane whole -> rendezvous with or without lanes
BIG = 4 * 1024 * 1024
BCAST = 512 * 1024          # above LARGE_MESSAGE_BYTES -> segmented


def traced_body():
    MPI.Init([])
    w = MPI.COMM_WORLD
    rank = w.Rank()
    # one >= 2 MiB pt2pt send: RTS/CTS/rendezvous over the mesh
    buf = np.zeros(BIG, dtype=np.int8)
    if rank == 0:
        w.Send(buf, 0, BIG, MPI.BYTE, 1, 77)
    elif rank == 1:
        w.Recv(buf, 0, BIG, MPI.BYTE, 0, 77)
    # one large Bcast: segmented pipeline rounds on every rank
    blob = np.zeros(BCAST, dtype=np.int8)
    w.Bcast(blob, 0, BCAST, MPI.BYTE, 0)
    w.Barrier()
    MPI.Finalize()
    return rank


@pytest.fixture
def trace_dir(tmp_path, monkeypatch):
    d = tmp_path / "trace"
    monkeypatch.setenv("REPRO_TRACE", str(d))
    yield d


class TestProcBackendTraceCollection:
    def test_merged_trace_carries_the_acceptance_events(self, trace_dir):
        assert sorted(procrun(NPROCS, traced_body, timeout=TIMEOUT)) \
            == list(range(NPROCS))

        merged = trace_dir / "trace.json"
        assert merged.exists(), sorted(os.listdir(trace_dir))
        obj = json.loads(merged.read_text())
        assert export.validate_chrome(obj) == []

        events = obj["traceEvents"]
        # one process lane per rank
        lanes = {e["pid"] for e in events if e["ph"] != "M"}
        assert lanes == set(range(NPROCS))

        def named(name, pid=None):
            return [e for e in events if e.get("name") == name
                    and (pid is None or e["pid"] == pid)]

        # 1. the rendezvous handshake for the big send: RTS on the
        # sender, the whole RTS->flush span, and the landing on rank 1
        assert named("wire.rts", 0)
        rndv = named("wire.rndv", 0)
        assert rndv and rndv[0]["ph"] == "X" \
            and rndv[0]["args"]["bytes"] == BIG
        land = named("wire.rndv_land", 1)
        assert land and land[0]["args"]["bytes"] == BIG
        # ... and which path the number came from: every rank stamps
        # where its large payloads go (the probes' verdict, not a
        # setting), and the landing says how this one arrived — read in
        # place iff both ends of the pair can, else through the lane
        # the pair has, else on the stream
        bulk = {pair: path for e in named("wire.config")
                for pair, path in e["args"]["bulk"].items()}
        assert len(bulk) == NPROCS * (NPROCS - 1), bulk
        assert set(bulk.values()) <= {"cma", "ring", "socket"}, bulk
        via = "cma" if bulk["0->1"] == bulk["1->0"] == "cma" \
            else "stream" if bulk["0->1"] == "socket" else "lane"
        assert land[0]["args"]["via"] == via, (land[0], bulk)
        # ... beside the nine settings the job ran under
        for e in named("wire.config"):
            assert e["args"]["REPRO_EAGER_LIMIT"] > 0 \
                and e["args"]["REPRO_TRACE"], e
            assert sum(k.startswith("REPRO_") for k in e["args"]) == 9

        # 2. the mailbox match with its dwell time, flagged as an RTS
        # match on the receiving rank
        matches = named("mailbox.match", 1)
        assert matches
        assert any(m["args"].get("rts") for m in matches)
        assert all(m["args"]["dwell_us"] >= 0 for m in matches)

        # 3. segmented Bcast: the algorithm decision and per-segment
        # rounds (512 KiB / 64 KiB segments -> >= 8 rounds) on a
        # non-root rank
        algos = [e for e in named("coll.algo")
                 if e["args"]["coll"] == "bcast"]
        assert algos and all(a["args"]["algorithm"] == "segmented"
                             for a in algos)
        rounds = named("Bcast.round", 2)
        assert len(rounds) >= 8

    def test_per_rank_files_round_trip(self, trace_dir):
        procrun(NPROCS, traced_body, timeout=TIMEOUT)
        paths = export.find_rank_files(str(trace_dir))
        assert [export.read_rank_file(p)[0] for p in paths] \
            == list(range(NPROCS))
        # re-merging the rank files reproduces the launcher's merge
        out = str(trace_dir / "remerged.json")
        export.merge_files(paths, out)
        assert (trace_dir / "trace.json").read_bytes() \
            == (trace_dir / "remerged.json").read_bytes()

    def test_no_trace_dir_means_no_files(self, tmp_path, monkeypatch):
        monkeypatch.delenv("REPRO_TRACE", raising=False)
        procrun(2, traced_body, timeout=TIMEOUT)
        assert not (tmp_path / "trace.json").exists()
