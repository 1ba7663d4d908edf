"""Request state machine in isolation."""

import threading
import time

import pytest

from repro.errors import MPIException, ERR_PENDING, ERR_REQUEST, \
    ERR_TRUNCATE
from repro.runtime.requests import Gate, RequestImpl, wait_all, \
    wait_any, wait_some
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
        assert not r.add_listener(hits.append)
        r.complete()
        assert hits == [r]

    def test_listener_fired_immediately_if_done(self, uni):
        r = req(uni)
        r.complete()
        hits = []
        assert r.add_listener(hits.append)
        assert hits == [r]

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

        def issue():
            """One fresh inner operation per Start; this one is eager."""
            starts.append(1)
            inner = req(uni)
            inner.complete(source_world=2, tag=len(starts),
                           count_elements=3)
            return inner

        r.make_persistent(issue)
        assert not r.active
        r.start()
        assert r.done and r.persistent_inner.done
        assert (r.status_source_world, r.status_tag,
                r.count_elements) == (2, 1, 3)     # the inner's outcome
        r.deactivate()
        r.start()
        assert len(starts) == 2 and r.status_tag == 2

    def test_inner_error_and_cancellation_are_adopted(self, uni):
        inners = []
        r = req(uni)
        r.make_persistent(lambda: inners.append(req(uni)) or inners[-1])
        r.start()
        assert not r.done
        inners[-1].complete(error=ERR_TRUNCATE, error_message="too big")
        with pytest.raises(MPIException) as ei:
            r.wait()
        assert ei.value.error_code == ERR_TRUNCATE
        r.deactivate()
        r.start()
        assert not r.done and r.error == 0
        inners[-1].complete_cancelled()
        assert r.done and r.cancelled

    def test_double_start_rejected(self, uni):
        r = req(uni)
        r.make_persistent(lambda: req(uni))  # the inner never completes
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


# ---------------------------------------------------------------------------
# the Waiter: one sleeping primitive behind wait / wait_all / wait_any
# ---------------------------------------------------------------------------

def _run_bounded(fn, seconds=60.0):
    """Run ``fn`` in a thread; a lost wakeup shows as a test failure, not
    as a hung suite."""
    box = []

    def body():
        try:
            fn()
        except BaseException as exc:      # noqa: BLE001 - re-raised below
            box.append(exc)

    t = threading.Thread(target=body, daemon=True)
    t.start()
    t.join(seconds)
    assert not t.is_alive(), "a waiter never woke"
    if box:
        raise box[0]


@pytest.fixture
def fast_switching():
    import sys
    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    yield
    sys.setswitchinterval(old)


class TestWaiterRaces:
    ROUNDS = 20_000

    def test_wait_racing_complete_never_loses_a_wakeup(self, uni,
                                                       fast_switching):
        """H1: the waiter is published and ``done`` re-checked under the
        lock ``complete()`` takes.  Both orders are forced — a barrier
        releases the two threads together and one of them yields first —
        so completions land before the check, between the check and the
        park, and after the park."""
        rounds = self.ROUNDS
        gate = threading.Barrier(2)
        reqs = [req(uni) for _ in range(rounds)]

        def completer():
            for i, r in enumerate(reqs):
                gate.wait()
                if i & 1:
                    time.sleep(0)
                r.complete(tag=i)

        def waiter():
            for i, r in enumerate(reqs):
                gate.wait()
                if not i & 1:
                    time.sleep(0)
                r.wait()
                assert r.done and r.status_tag == i

        t = threading.Thread(target=completer, daemon=True)
        t.start()
        _run_bounded(waiter, 120.0)
        t.join(10)
        assert not t.is_alive()
        assert uni.listeners == []

    def test_wait_all_racing_complete_never_loses_a_wakeup(self, uni):
        """H1 for the array wait: the last pending request completing
        between ``wait_all``'s look at ``done`` and its park must not
        leave it asleep on nothing (at a 1 us switch interval the window
        is hit within a few thousand rounds)."""
        import sys
        rounds = self.ROUNDS
        gate = threading.Barrier(2)
        pairs = [(req(uni), req(uni)) for _ in range(rounds)]

        def completer():
            for i, (a, b) in enumerate(pairs):
                gate.wait()
                for _ in range(i % 11):     # sweep the completion
                    pass                    # across the waiter's window
                (a if i & 1 else b).complete(tag=i)
                (b if i & 1 else a).complete(tag=i)

        def waiter():
            for i, (a, b) in enumerate(pairs):
                gate.wait()
                wait_all([a, None, b] if i & 2 else [a], uni)
                assert a.done and a.status_tag == i

        old = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            t = threading.Thread(target=completer, daemon=True)
            t.start()
            _run_bounded(waiter, 120.0)
            t.join(10)
        finally:
            sys.setswitchinterval(old)
        assert not t.is_alive()
        assert uni.listeners == []

    def test_completion_between_wait_alls_look_and_its_park(self, uni):
        """The same window, hit deterministically: the request completes
        right after the first (unlocked) read of ``done`` said False."""
        class CompletesAfterFirstLook(RequestImpl):
            _done, looks = False, 0

            @property
            def done(self):
                seen = self._done
                self.looks += 1
                if self.looks == 1:
                    self.complete(tag=7)
                return seen

            @done.setter
            def done(self, value):
                self._done = value

        for others in ([], [None], [req(uni)]):
            r = CompletesAfterFirstLook(uni, RequestImpl.KIND_RECV)
            for o in others:
                if o is not None:
                    o.complete()
            _run_bounded(lambda: wait_all(others + [r], uni), 10.0)
            assert r.status_tag == 7
        assert uni.listeners == []

    def test_a_waiter_on_nothing_is_open(self):
        from repro.runtime.requests import Waiter
        w = Waiter(0)
        assert w.park(0.05) and w.park(0)
        w.wake()

    def test_concurrent_wakes_open_the_gate_once(self, fast_switching):
        """H2: a second ``Lock.release()`` raises — abort, failure and
        completion may all poke the same waiter."""
        from repro.runtime.requests import Waiter
        errors = []
        for _ in range(3000):
            w = Waiter(2)
            done = RequestImpl(FakeUniverse(), RequestImpl.KIND_RECV)
            done.complete()
            gate = threading.Barrier(3)

            def poke(*args, w=w, gate=gate):
                gate.wait()
                try:
                    w.wake(*args)
                except BaseException as exc:    # noqa: BLE001
                    errors.append(exc)

            ts = [threading.Thread(target=poke, args=a)
                  for a in ((), (done,), (done,))]
            for t in ts:
                t.start()
            for t in ts:
                t.join()
            assert w.park(5.0) and w.park(0)     # open, and stays open
            w.wake()
            w.wake(done)
        assert errors == []

    def test_complete_then_abort_reports_own_outcome(self, uni):
        from repro.errors import AbortException
        r = req(uni)
        woke = []

        def waiter():
            try:
                r.wait()
            except MPIException as exc:
                woke.append(exc.error_code)

        t = threading.Thread(target=waiter)
        t.start()
        time.sleep(0.03)
        r.complete(error=ERR_TRUNCATE, error_message="too big")
        uni.poison_with(AbortException(1, 0))
        t.join(10)
        assert woke == [ERR_TRUNCATE]

    def test_abort_then_complete_reports_the_abort(self, uni):
        from repro.errors import AbortException
        r = req(uni)
        woke = []

        def waiter():
            try:
                r.wait()
            except AbortException:
                woke.append("abort")

        t = threading.Thread(target=waiter)
        t.start()
        time.sleep(0.03)
        uni.poison_with(AbortException(1, 0))
        t.join(10)
        r.complete()                 # late: nobody is parked any more
        r.complete(error=ERR_TRUNCATE)
        assert woke == ["abort"] and r.error == 0
        r.wait()                     # done now: its own (clean) outcome


class TestOneWaiterForMany:
    def test_done_request_builds_no_waiter(self, uni, waiters_built):
        r = req(uni)
        r.complete()
        r.wait()
        assert r.test()
        wait_all([r, None], uni)
        assert wait_any([None, r], uni) == 1
        assert wait_some([r], uni) == [0]
        assert waiters_built == []

    def _mixed(self, uni):
        """done, pending, null, a started persistent, pending."""
        done = req(uni)
        done.complete(tag=1)
        persistent = req(uni)
        persistent.make_persistent(lambda: req(uni))
        persistent.start()
        return [done, req(uni), None, persistent, req(uni)]

    def test_wait_all_parks_one_waiter_on_the_pending(self, uni,
                                                      waiters_built):
        rs = self._mixed(uni)
        for r, delay in ((rs[1], 0.02), (rs[3].persistent_inner, 0.04),
                         (rs[4], 0.03)):
            threading.Timer(delay, r.complete).start()
        _run_bounded(lambda: wait_all(rs, uni))
        assert all(r is None or r.done for r in rs)
        assert len(waiters_built) == 1
        assert uni.listeners == []

    def test_wait_any_and_some_park_one_waiter(self, uni, waiters_built):
        rs = self._mixed(uni)
        assert wait_any(rs, uni) == 0           # already done: no sleep
        assert wait_some(rs, uni) == [0]
        assert waiters_built == []
        rs = rs[1:]                             # pending, null, pers., p.
        threading.Timer(0.02, rs[2].persistent_inner.complete).start()
        got = []
        _run_bounded(lambda: got.append(wait_any(rs, uni)))
        assert got == [2] and len(waiters_built) == 1
        # the losers keep no dead waiter behind
        assert not rs[0]._listeners and not rs[3]._listeners
        threading.Timer(0.02, rs[3].complete).start()
        _run_bounded(lambda: got.append(wait_some(rs, uni)))
        assert got[1] in ([2], [2, 3]) and len(waiters_built) <= 2
        assert wait_some([None], uni) == []

    def test_wait_all_reports_in_index_order(self, uni):
        """As waiting on each in turn would: a later request's error
        waits for the earlier requests, an earlier one's does not wait
        for the later ones."""
        first, second = req(uni), req(uni)
        threading.Timer(0.02, second.complete,
                        kwargs={"error": ERR_TRUNCATE}).start()
        threading.Timer(0.08, first.complete).start()
        with pytest.raises(MPIException):
            _run_bounded(lambda: wait_all([first, second], uni))
        assert first.done                       # it was waited for

        first, never = req(uni), req(uni)
        threading.Timer(0.02, first.complete,
                        kwargs={"error": ERR_TRUNCATE}).start()
        with pytest.raises(MPIException) as ei:
            _run_bounded(lambda: wait_all([first, never], uni), 10.0)
        assert ei.value.error_code == ERR_TRUNCATE and not never.done
        assert not never._listeners

    def test_abort_wakes_wait_all(self, uni):
        from repro.errors import AbortException
        rs = [req(uni) for _ in range(3)]
        rs[0].complete()
        threading.Timer(0.03, uni.poison_with,
                        args=(AbortException(1, 0),)).start()
        with pytest.raises(AbortException):
            _run_bounded(lambda: wait_all(rs, uni), 10.0)
        assert not rs[1]._listeners and not rs[2]._listeners


class TestGate:
    """A blocking receive's reusable sleep: only the armed request's
    completion, or the abort, ends a park."""

    @staticmethod
    def _parks(gate, seconds=0.2) -> bool:
        """Did a park end within ``seconds``?  (A park left hanging is
        ended by arming and completing a fresh request.)"""
        t = threading.Thread(target=gate.park, daemon=True)
        t.start()
        t.join(seconds)
        if t.is_alive():
            r = RequestImpl(FakeUniverse(), RequestImpl.KIND_RECV)
            gate.arm(r)
            r.complete()
            t.join(10)
            return False
        return True

    def test_a_stale_completion_does_not_end_a_later_wait(self, uni):
        gate = Gate()
        old, new = req(uni), req(uni)
        gate.arm(old)
        gate.arm(new)       # the wait on ``old`` raised before its park
        gate.wake(old)      # ``old`` completes late
        assert not self._parks(gate)
        gate.arm(new)
        new.complete()
        assert self._parks(gate)

    def test_arming_closes_a_gate_a_wait_left_open(self, uni):
        gate = Gate()
        first = req(uni)
        gate.arm(first)
        first.complete()    # opened, but its wait raised before the park
        gate.arm(req(uni))
        assert not self._parks(gate)

    def test_an_abort_ends_a_park_armed_before_or_after_it(self, uni):
        gate = Gate()
        gate.wake()         # the abort, before any arming
        gate.arm(req(uni))
        assert self._parks(gate)
        gate.arm(req(uni))
        assert self._parks(gate)        # the job stays aborted
