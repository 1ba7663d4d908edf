"""Edge cases for the request-array operations in
:mod:`repro.runtime.requests` — None (null) entries, inactive persistent
requests, and already-complete requests — plus the mpiJava static array
members over mixed handle lists.
"""

from __future__ import annotations

import threading

import numpy as np
import pytest

from repro.mpijava import MPI, Request
from repro.runtime import requests as R

from tests.conftest import run


class _StubUniverse:
    """Just enough Universe surface for RequestImpl and the array ops."""

    sanitizer = None

    def __init__(self):
        self._abort_listeners = []

    def add_abort_listener(self, fn):
        self._abort_listeners.append(fn)

    def remove_abort_listener(self, fn):
        if fn in self._abort_listeners:
            self._abort_listeners.remove(fn)

    def check_abort(self):
        pass


@pytest.fixture
def uni():
    return _StubUniverse()


def _req(uni, done=False):
    r = R.RequestImpl(uni, R.RequestImpl.KIND_RECV)
    if done:
        r.complete(source_world=0, tag=0, count_elements=1)
    return r


# -- wait_any / wait_all ------------------------------------------------------

def test_wait_any_all_none_returns_minus_one(uni):
    assert R.wait_any([None, None, None], uni) == -1


def test_wait_any_already_complete_returns_immediately(uni):
    rs = [None, _req(uni), _req(uni, done=True)]
    assert R.wait_any(rs, uni) == 2


def test_wait_any_wakes_on_late_completion(uni):
    r = _req(uni)
    threading.Timer(0.02, r.complete).start()
    assert R.wait_any([None, r], uni) == 1


def test_wait_all_skips_none_entries(uni):
    rs = [None, _req(uni, done=True), None]
    R.wait_all(rs, uni)     # must not block or raise


# -- test_all -----------------------------------------------------------------

def test_test_all_empty_and_all_none(uni):
    assert R.test_all([], uni) is True
    assert R.test_all([None, None], uni) is True


def test_test_all_mixed_done_and_pending(uni):
    pending = _req(uni)
    rs = [None, _req(uni, done=True), pending]
    assert R.test_all(rs, uni) is False
    pending.complete()
    assert R.test_all(rs, uni) is True


# -- wait_some / test_some ----------------------------------------------------

def test_wait_some_all_none_returns_empty(uni):
    assert R.wait_some([None, None], uni) == []


def test_wait_some_returns_every_done_index(uni):
    rs = [_req(uni, done=True), None, _req(uni), _req(uni, done=True)]
    assert R.wait_some(rs, uni) == [0, 3]


def test_test_some_nothing_done(uni):
    assert R.test_some([None, _req(uni)], uni) == []


def test_test_some_ignores_none_and_reports_done(uni):
    rs = [None, _req(uni, done=True), _req(uni)]
    assert R.test_some(rs, uni) == [1]


# -- inactive persistent requests ---------------------------------------------

def test_inactive_persistent_counts_as_complete(uni):
    """A completed-then-deactivated persistent request stays ``done`` —
    Waitall over it must not block (MPI treats inactive as complete)."""
    r = _req(uni)
    r.make_persistent(lambda: _req(uni))   # inner never completes
    r.start()
    r.complete()
    r.deactivate()
    assert R.test_all([r], uni) is True
    assert R.wait_some([r], uni) == [0]


def test_restarted_persistent_is_pending_again(uni):
    r = _req(uni)
    r.make_persistent(lambda: _req(uni))   # inner never completes
    r.start()
    r.complete()
    r.deactivate()
    r.start()
    assert R.test_all([r], uni) is False
    assert R.test_some([r], uni) == []


# -- through the mpiJava static array members ---------------------------------

def test_waitsome_with_null_and_complete_mix():
    def body():
        me = MPI.COMM_WORLD.Rank()
        if me == 0:
            bufs = [np.zeros(4, dtype=np.int32) for _ in range(3)]
            reqs = [MPI.COMM_WORLD.Irecv(b, 0, 4, MPI.INT, 1, t)
                    for t, b in enumerate(bufs)]
            got = set()
            while len(got) < 3:
                for st in Request.Waitsome(reqs):
                    got.add(st.index)
                    assert bufs[st.index][0] == st.index
                # completed entries became REQUEST_NULL handles; the
                # next Waitsome must skip them rather than re-report
                reqs = [r for r in reqs]    # same objects, now nulls mixed
                if len(got) < 3:
                    assert any(not r.Is_null() for r in reqs)
        else:
            for t in range(3):
                buf = np.full(4, t, dtype=np.int32)
                MPI.COMM_WORLD.Send(buf, 0, 4, MPI.INT, 0, t)
    run(2, body)


def test_testall_none_until_all_arrive():
    def body():
        me = MPI.COMM_WORLD.Rank()
        if me == 0:
            bufs = [np.zeros(2, dtype=np.int64) for _ in range(2)]
            reqs = [MPI.COMM_WORLD.Irecv(b, 0, 2, MPI.LONG, 1, t)
                    for t, b in enumerate(bufs)]
            MPI.COMM_WORLD.Barrier()
            statuses = None
            while statuses is None:
                statuses = Request.Testall(reqs)
            assert [st.index for st in statuses] == [0, 1]
            assert all(r.Is_null() for r in reqs)
        else:
            MPI.COMM_WORLD.Barrier()
            for t in range(2):
                buf = np.full(2, t, dtype=np.int64)
                MPI.COMM_WORLD.Send(buf, 0, 2, MPI.LONG, 0, t)
    run(2, body)


def test_waitany_undefined_on_all_null():
    def body():
        if MPI.COMM_WORLD.Rank() == 0:
            buf = np.zeros(1, dtype=np.int32)
            r = MPI.COMM_WORLD.Irecv(buf, 0, 1, MPI.INT, 1, 0)
            r.Wait()
            # r is now a null handle: Waitany over only-null returns
            # an UNDEFINED-index status instead of blocking forever
            st = Request.Waitany([r])
            assert st.index == MPI.UNDEFINED
        else:
            MPI.COMM_WORLD.Send(np.ones(1, dtype=np.int32), 0, 1,
                                MPI.INT, 0, 0)
    run(2, body)
