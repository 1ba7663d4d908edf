"""Blocking point-to-point on procs-DM, over sockets and with shm lanes.

A blocking ``Send`` whose frame leaves inline builds no request, and a
blocking ``Recv`` lands a message already here with none, or waits on
the rank's one gate: every case where that shortcut must step aside —
the other send modes, ``PROC_NULL``, a self-send, wildcards, objects, a
strided type, a message at the eager limit, a truncation, a dead peer,
a job abort — runs here on ``ProcExecutor(2)`` with ``REPRO_SHM`` 0
and 1.
"""

from __future__ import annotations

import os
import signal
import time

import numpy as np
import pytest

from repro import procrun
from repro.errors import (AbortException, ERR_TRUNCATE, MPIException,
                          ProcFailedException)
from repro.executor.runner import RankFailure
from repro.mpijava import MPI

TIMEOUT = 60.0


@pytest.fixture(params=["0", "1"], autouse=True)
def carrier(request, monkeypatch):
    monkeypatch.setenv("REPRO_SHM", request.param)
    return request.param


def matrix_body():
    """Rank 0 receives what rank 1 sends, case by case; returns what it
    saw.  A one-int token from rank 0 orders a case where rank 0 must
    have posted first."""
    from repro.transport.wire import eager_limit
    MPI.Init([])
    w = MPI.COMM_WORLD
    rank = w.Rank()
    data = np.arange(8, dtype=np.int32)
    got = np.zeros(8, dtype=np.int32)
    token = np.zeros(1, dtype=np.int32)
    out = {}
    # a message already here, then one still to come
    if rank == 1:
        w.Send(data, 0, 8, MPI.INT, 0, 1)
        w.Recv(token, 0, 1, MPI.INT, 0, 9)
        time.sleep(0.05)
        w.Send(data + 1, 0, 8, MPI.INT, 0, 2)
    else:
        w.Probe(1, 1)
        st = w.Recv(got, 0, 8, MPI.INT, 1, 1)
        out["arrived"] = (got.tolist(), st.source, st.tag,
                          st.Get_count(MPI.INT))
        w.Send(token, 0, 1, MPI.INT, 1, 9)
        st = w.Recv(got, 0, 8, MPI.INT, 1, 2)
        out["later"] = (got.tolist(), st.source, st.tag)
    # the other modes (Rsend needs its receive posted: the token says so)
    MPI.Buffer_attach(4096)
    for tag, mode in ((3, "Ssend"), (4, "Bsend"), (5, "Rsend")):
        if rank == 1:
            w.Recv(token, 0, 1, MPI.INT, 0, 9)
            getattr(w, mode)(data * tag, 0, 8, MPI.INT, 0, tag)
        else:
            got[:] = 0
            req = w.Irecv(got, 0, 8, MPI.INT, 1, tag)
            w.Send(token, 0, 1, MPI.INT, 1, 9)
            req.Wait()
            out[mode] = got.tolist()
    MPI.Buffer_detach()
    # PROC_NULL, and a self-send
    w.Send(data, 0, 8, MPI.INT, MPI.PROC_NULL, 6)
    st = w.Recv(got, 0, 8, MPI.INT, MPI.PROC_NULL, 6)
    out["proc_null"] = (st.source, st.tag, st.Get_count(MPI.INT))
    w.Send(data + rank, 0, 8, MPI.INT, rank, 7)
    st = w.Recv(got, 0, 8, MPI.INT, rank, 7)
    out["self"] = (got.tolist(), st.source)
    # wildcards: the status names what matched
    if rank == 1:
        w.Send(data, 0, 3, MPI.INT, 0, 11)
    else:
        st = w.Recv(got, 0, 8, MPI.INT, MPI.ANY_SOURCE, MPI.ANY_TAG)
        out["wild"] = (st.source, st.tag, st.Get_count(MPI.INT))
    # objects, a strided Vector, a message at the eager limit (and under)
    vec = MPI.INT.Vector(4, 1, 2).Commit()
    limit = eager_limit() // 8
    if rank == 1:
        w.Send([{"k": 1}, "two"], 0, 2, MPI.OBJECT, 0, 12)
        w.Send(np.arange(8, dtype=np.int32), 0, 1, vec, 0, 13)
        for n in (limit, limit - 1):
            w.Send(np.full(n, float(n)), 0, n, MPI.DOUBLE, 0, 14)
    else:
        objs = [None, None]
        st = w.Recv(objs, 0, 2, MPI.OBJECT, 1, 12)
        out["object"] = (objs, st.Get_count(MPI.OBJECT))
        strided = np.zeros(8, dtype=np.int32)
        w.Recv(strided, 0, 1, vec, 1, 13)
        out["vector"] = strided.tolist()
        for n in (limit, limit - 1):
            big = np.zeros(n)
            st = w.Recv(big, 0, n, MPI.DOUBLE, 1, 14)
            out[f"eager_limit-{limit - n}"] = (
                bool((big == n).all()), st.Get_count(MPI.DOUBLE))
    MPI.Finalize()
    return out


def test_blocking_calls_deliver_and_report(carrier):
    out = procrun(2, matrix_body, timeout=TIMEOUT)[0]
    data = list(range(8))
    assert out["arrived"] == (data, 1, 1, 8)
    assert out["later"] == ([d + 1 for d in data], 1, 2)
    for tag, mode in ((3, "Ssend"), (4, "Bsend"), (5, "Rsend")):
        assert out[mode] == [d * tag for d in data], mode
    assert out["proc_null"] == (MPI.PROC_NULL, MPI.ANY_TAG, 0)
    assert out["self"] == (data, 0)
    assert out["wild"] == (1, 11, 3)
    assert out["object"] == ([{"k": 1}, "two"], 2)
    assert out["vector"] == [0, 0, 2, 0, 4, 0, 6, 0]
    limit = next(k for k in out if k.startswith("eager_limit-0"))
    assert out[limit][0] and out["eager_limit-1"][0]


def truncate_body():
    MPI.Init([])
    w = MPI.COMM_WORLD
    w.Errhandler_set(MPI.ERRORS_RETURN)
    small = np.zeros(2, dtype=np.int32)
    if w.Rank() == 1:
        w.Send(np.arange(8, dtype=np.int32), 0, 8, MPI.INT, 0, 1)
        w.Send(np.arange(8, dtype=np.int32), 0, 8, MPI.INT, 0, 2)
        codes = None
    else:
        codes = []
        w.Probe(1, 1)                   # arrived: the mailbox lands it
        for tag in (1, 2):              # tag 2 may still be on its way
            try:
                w.Recv(small, 0, 2, MPI.INT, 1, tag)
                codes.append(0)
            except MPIException as exc:
                codes.append(exc.error_code)
    MPI.Finalize()
    return codes


def test_a_truncating_receive_returns_err_truncate(carrier):
    assert procrun(2, truncate_body, timeout=TIMEOUT)[0] \
        == [ERR_TRUNCATE, ERR_TRUNCATE]


def killed_peer_body():
    MPI.Init([])
    w = MPI.COMM_WORLD
    w.Errhandler_set(MPI.ERRORS_RETURN)
    if w.Rank() == 1:
        w.Barrier()
        time.sleep(0.2)                 # rank 0 is inside its Recv
        os.kill(os.getpid(), signal.SIGKILL)
    w.Barrier()
    try:
        w.Recv(np.zeros(1, dtype=np.int32), 0, 1, MPI.INT, 1, 1)
        raise AssertionError("a receive from a killed peer completed")
    except ProcFailedException as exc:
        assert exc.failed_rank == 1, repr(exc)
    return "survived"


def test_a_peer_killed_under_a_blocking_receive_is_named(carrier):
    with pytest.raises(RankFailure) as ei:
        procrun(2, killed_peer_body, timeout=TIMEOUT)
    assert set(ei.value.failures) == {1}, ei.value.failures


def abort_body():
    MPI.Init([])
    w = MPI.COMM_WORLD
    if w.Rank() == 1:
        w.Barrier()
        time.sleep(0.2)                 # rank 0 is inside its Recv
        w.Abort(7)
    w.Barrier()
    try:
        w.Recv(np.zeros(1, dtype=np.int32), 0, 1, MPI.INT, 1, 1)
    except AbortException as exc:
        assert exc.origin_rank == 1, repr(exc)
        raise
    return "unreachable"


def test_a_job_abort_unwinds_a_blocked_receive(carrier):
    t0 = time.monotonic()
    with pytest.raises(RankFailure) as ei:
        procrun(2, abort_body, timeout=TIMEOUT)
    assert time.monotonic() - t0 < 20
    assert 1 in ei.value.failures, ei.value.failures
