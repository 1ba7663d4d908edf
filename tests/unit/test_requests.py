"""Request state machine in isolation."""

import threading
import time

import pytest

from repro.errors import MPIException, ERR_PENDING, ERR_REQUEST, \
    ERR_TRUNCATE
from repro.runtime.requests import RequestImpl, wait_all, wait_any, \
    wait_some
from repro.runtime.requests import test_all as req_test_all
from repro.runtime.requests import test_some as req_test_some


class FakeUniverse:
    """Minimal stand-in implementing the abort-listener contract."""

    def __init__(self):
        self.aborted = None
        self.listeners = []

    def check_abort(self):
        if self.aborted:
            raise self.aborted

    def add_abort_listener(self, fn):
        if self.aborted:
            fn()
            return True
        self.listeners.append(fn)
        return False

    def remove_abort_listener(self, fn):
        if fn in self.listeners:
            self.listeners.remove(fn)

    def poison_with(self, exc):
        self.aborted = exc
        fns, self.listeners = self.listeners, []
        for fn in fns:
            fn()


@pytest.fixture
def uni():
    return FakeUniverse()


def req(uni, kind=RequestImpl.KIND_RECV):
    return RequestImpl(uni, kind)


class TestCompletion:
    def test_complete_sets_status(self, uni):
        r = req(uni)
        r.complete(source_world=3, tag=7, count_elements=12)
        assert r.done
        assert (r.status_source_world, r.status_tag,
                r.count_elements) == (3, 7, 12)

    def test_complete_idempotent(self, uni):
        r = req(uni)
        r.complete(source_world=1)
        r.complete(source_world=2)
        assert r.status_source_world == 1

    def test_wait_returns_after_complete(self, uni):
        r = req(uni)
        threading.Timer(0.02, r.complete).start()
        r.wait()  # must not hang
        assert r.done

    def test_wait_raises_stored_error(self, uni):
        r = req(uni)
        r.complete(error=ERR_TRUNCATE, error_message="too big")
        with pytest.raises(MPIException) as ei:
            r.wait()
        assert ei.value.error_code == ERR_TRUNCATE

    def test_test_nonblocking(self, uni):
        r = req(uni)
        assert not r.test()
        r.complete()
        assert r.test()

    def test_listener_fired_on_complete(self, uni):
        r = req(uni)
        hits = []
        assert not r.add_listener(lambda: hits.append(1))
        r.complete()
        assert hits == [1]

    def test_listener_fired_immediately_if_done(self, uni):
        r = req(uni)
        r.complete()
        hits = []
        assert r.add_listener(lambda: hits.append(1))
        assert hits == [1]

    def test_cancelled_completion(self, uni):
        r = req(uni)
        r.complete_cancelled()
        assert r.done and r.cancelled


class TestPersistent:
    def test_start_requires_persistent(self, uni):
        r = req(uni)
        with pytest.raises(MPIException) as ei:
            r.start()
        assert ei.value.error_code == ERR_REQUEST

    def test_start_restarts(self, uni):
        starts = []
        r = req(uni)
        r.make_persistent(lambda: starts.append(1) and None or
                          r.complete())
        assert not r.active
        r.start()
        assert r.done
        r.deactivate()
        r.start()
        assert len(starts) == 2

    def test_double_start_rejected(self, uni):
        r = req(uni)
        r.make_persistent(lambda: None)  # never completes
        r.start()
        with pytest.raises(MPIException) as ei:
            r.start()
        assert ei.value.error_code == ERR_PENDING


class TestArrayOps:
    def test_wait_any_returns_first_done(self, uni):
        rs = [req(uni) for _ in range(3)]
        threading.Timer(0.02, rs[1].complete).start()
        assert wait_any(rs, uni) == 1

    def test_wait_any_all_null(self, uni):
        assert wait_any([None, None], uni) == -1

    def test_wait_any_skips_nulls(self, uni):
        rs = [None, req(uni)]
        rs[1].complete()
        assert wait_any(rs, uni) == 1

    def test_wait_all(self, uni):
        rs = [req(uni) for _ in range(3)]
        for r in rs:
            threading.Timer(0.01, r.complete).start()
        wait_all(rs, uni)
        assert all(r.done for r in rs)

    def test_test_all(self, uni):
        rs = [req(uni), req(uni)]
        rs[0].complete()
        assert not req_test_all(rs, uni)
        rs[1].complete()
        assert req_test_all(rs, uni)

    def test_wait_some_returns_all_done(self, uni):
        rs = [req(uni) for _ in range(4)]
        rs[0].complete()
        rs[2].complete()
        assert wait_some(rs, uni) == [0, 2]

    def test_test_some_empty_when_none_done(self, uni):
        rs = [req(uni)]
        assert req_test_some(rs, uni) == []


class TestAbortIntegration:
    def test_wait_raises_on_abort(self, uni):
        from repro.errors import AbortException
        r = req(uni)

        def poison():
            time.sleep(0.05)
            uni.poison_with(AbortException(1, 0))

        threading.Thread(target=poison).start()
        with pytest.raises(AbortException):
            r.wait()

    def test_wait_releases_abort_listener(self, uni):
        r = req(uni)
        threading.Timer(0.02, r.complete).start()
        r.wait()
        assert uni.listeners == []

    def test_wait_any_woken_by_abort(self, uni):
        from repro.errors import AbortException
        rs = [req(uni) for _ in range(2)]

        def poison():
            time.sleep(0.05)
            uni.poison_with(AbortException(1, 0))

        threading.Thread(target=poison).start()
        with pytest.raises(AbortException):
            wait_any(rs, uni)

    def test_completed_request_preserves_own_error_over_abort(self, uni):
        from repro.errors import AbortException
        r = req(uni)
        r.complete(error=ERR_TRUNCATE, error_message="too big")
        uni.poison_with(AbortException(1, 0))
        with pytest.raises(MPIException) as ei:
            r.wait()
        assert ei.value.error_code == ERR_TRUNCATE


class TestScheduleSubReceiveFailure:
    """A collective schedule whose sub-receive completes with a ULFM
    error *before* the schedule's own failure listener has fired."""

    def test_recv_failed_at_post_time_fails_schedule_with_its_error(self):
        """``note_peer_failure`` records the dead rank, then walks its
        listeners; a round that posts a receive from that rank inside
        the window sees it complete-with-error synchronously, its box
        never filled, while the schedule is not yet ``done``.  The
        schedule must fail with that ``ERR_PROC_FAILED`` — it used to
        decode the empty box (``'NoneType'.is_object``)."""
        from repro.errors import ERR_PROC_FAILED, ProcFailedException
        from repro.runtime.engine import RankRuntime, Universe
        from repro.runtime.nbc import progress
        from repro.runtime.nbc.schedule import Recv

        universe = Universe(2)
        try:
            comm = RankRuntime(universe, 0).comm_world

            def build(sched):
                # the window: rank 1 is on record as failed, the
                # failure listeners have not been walked yet
                sched.compute(lambda: universe.failed_ranks.__setitem__(
                    1, ConnectionError("rank 1 connection lost")))
                sched.round(Recv(1, comm.next_coll_tag()))

            req = progress.launch(comm, "probe", build)
            assert req.done and req.error == ERR_PROC_FAILED, \
                (req.error, req.error_message)
            with pytest.raises(ProcFailedException):
                req.raise_if_error()
        finally:
            universe.close()
