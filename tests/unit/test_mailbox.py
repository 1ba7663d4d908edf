"""Mailbox matching semantics (MPI 1.1 §3.5) tested in isolation."""

import threading
import time

import numpy as np
import pytest

from repro.datatypes import primitives as P
from repro.errors import (ERR_PROC_FAILED, ERR_REVOKED, SUCCESS,
                          ProcFailedException, RevokedException)
from repro.runtime.consts import ANY_SOURCE, ANY_TAG
from repro.runtime.engine import RankRuntime, Universe
from repro.runtime.envelope import (Envelope, KIND_ACK, KIND_RTS,
                                    MODE_SYNCHRONOUS)
from repro.runtime.mailbox import Mailbox
from repro.runtime.requests import RequestImpl


class FakeUniverse:
    def __init__(self):
        self.abort_envs = []

    def check_abort(self):
        pass

    def note_abort_delivery(self, env=None):
        self.abort_envs.append(env)

    def add_abort_listener(self, fn):
        return False

    def remove_abort_listener(self, fn):
        pass


@pytest.fixture
def mb():
    return Mailbox(0, FakeUniverse())


def mkenv(src=1, tag=5, context=0, n=3, **kw):
    return Envelope(src=src, dst=0, context=context, tag=tag,
                    payload=np.arange(n, dtype=np.int32), nelems=n, **kw)


def post(mb, source=1, tag=5, context=0, universe=None):
    req = RequestImpl(universe or FakeUniverse(), RequestImpl.KIND_RECV)
    captured = []

    def land(env):
        captured.append(env)
        return env.nelems, SUCCESS, ""

    mb.post_recv(req, source, tag, context, land)
    return req, captured


class TestMatching:
    def test_exact_match_posted_first(self, mb):
        req, got = post(mb)
        assert not req.done
        mb.deliver(mkenv())
        assert req.done
        assert req.status_source_world == 1
        assert req.status_tag == 5
        assert req.count_elements == 3
        assert len(got) == 1

    def test_unexpected_then_recv(self, mb):
        mb.deliver(mkenv())
        req, got = post(mb)
        assert req.done and len(got) == 1

    def test_tag_mismatch_not_matched(self, mb):
        req, _ = post(mb, tag=7)
        mb.deliver(mkenv(tag=5))
        assert not req.done

    def test_source_mismatch_not_matched(self, mb):
        req, _ = post(mb, source=2)
        mb.deliver(mkenv(src=1))
        assert not req.done

    def test_context_isolation(self, mb):
        req, _ = post(mb, context=1)
        mb.deliver(mkenv(context=2))
        assert not req.done

    def test_any_source_any_tag(self, mb):
        req, _ = post(mb, source=ANY_SOURCE, tag=ANY_TAG)
        mb.deliver(mkenv(src=3, tag=99))
        assert req.done
        assert req.status_source_world == 3
        assert req.status_tag == 99

    def test_fifo_arrival_order_for_wildcard(self, mb):
        mb.deliver(mkenv(tag=1, n=1))
        mb.deliver(mkenv(tag=2, n=2))
        req, got = post(mb, tag=ANY_TAG)
        assert got[0].tag == 1  # earliest arrival matches first

    def test_posted_order_respected(self, mb):
        r1, _ = post(mb)
        r2, _ = post(mb)
        mb.deliver(mkenv())
        assert r1.done and not r2.done
        mb.deliver(mkenv())
        assert r2.done

    def test_nonovertaking_same_pair(self, mb):
        mb.deliver(mkenv(n=1))
        mb.deliver(mkenv(n=2))
        ra, ca = post(mb)
        rb, cb = post(mb)
        assert ca[0].nelems == 1
        assert cb[0].nelems == 2


class TestSyncNotify:
    def test_sync_matched_on_posted(self, mb):
        fired = []
        req, _ = post(mb)
        env = mkenv(mode=MODE_SYNCHRONOUS)
        env.on_matched = lambda: fired.append(1)
        mb.deliver(env)
        assert fired == [1]

    def test_sync_matched_from_unexpected(self, mb):
        fired = []
        env = mkenv(mode=MODE_SYNCHRONOUS)
        env.on_matched = lambda: fired.append(1)
        mb.deliver(env)
        assert fired == []        # not yet matched
        post(mb)
        assert fired == [1]


class TestAckRouting:
    def test_ack_calls_registered(self, mb):
        hits = []
        mb.register_ack(42, lambda: hits.append(1))
        mb.deliver(Envelope(kind=KIND_ACK, seq=42, dst=0))
        assert hits == [1]
        # second delivery of same seq is dropped
        mb.deliver(Envelope(kind=KIND_ACK, seq=42, dst=0))
        assert hits == [1]


class TestProbeCancel:
    def test_iprobe_does_not_consume(self, mb):
        mb.deliver(mkenv())
        assert mb.iprobe(1, 5, 0) is not None
        assert mb.iprobe(1, 5, 0) is not None
        req, _ = post(mb)
        assert req.done

    def test_iprobe_no_match(self, mb):
        assert mb.iprobe(1, 5, 0) is None

    def test_cancel_posted(self, mb):
        req, _ = post(mb)
        assert mb.cancel_recv(req)
        assert req.cancelled and req.done
        # envelope now goes to unexpected, not the cancelled recv
        mb.deliver(mkenv())
        unexpected, posted = mb.pending_counts()
        assert unexpected == 1 and posted == 0

    def test_cancel_after_match_fails(self, mb):
        req, _ = post(mb)
        mb.deliver(mkenv())
        assert not mb.cancel_recv(req)
        assert not req.cancelled


class TestReadyMode:
    def test_ready_without_posted_recorded(self, mb):
        from repro.runtime.envelope import MODE_READY
        mb.deliver(mkenv(mode=MODE_READY))
        assert len(mb.ready_mode_errors) == 1

    def test_has_posted_match(self, mb):
        env = mkenv()
        assert not mb.has_posted_match(env)
        post(mb)
        assert mb.has_posted_match(env)


class TestIndexedMatching:
    """The hash-bucketed queues must reproduce linear-scan semantics."""

    def test_wildcard_earliest_arrival_across_buckets(self, mb):
        # three different (src, tag) buckets, interleaved arrival
        mb.deliver(mkenv(src=3, tag=9, n=1))
        mb.deliver(mkenv(src=1, tag=5, n=2))
        mb.deliver(mkenv(src=2, tag=7, n=3))
        order = []
        for _ in range(3):
            req, got = post(mb, source=ANY_SOURCE, tag=ANY_TAG)
            order.append((got[0].src, got[0].tag))
        assert order == [(3, 9), (1, 5), (2, 7)]

    def test_wildcard_vs_exact_posted_obeys_post_order(self, mb):
        r_wild, c_wild = post(mb, source=ANY_SOURCE, tag=ANY_TAG)
        r_exact, c_exact = post(mb, source=1, tag=5)
        mb.deliver(mkenv(src=1, tag=5))
        # the wildcard was posted first: it must win the match
        assert r_wild.done and not r_exact.done
        mb.deliver(mkenv(src=1, tag=5))
        assert r_exact.done

    def test_exact_posted_before_wildcard_wins(self, mb):
        r_exact, _ = post(mb, source=1, tag=5)
        r_wild, _ = post(mb, source=ANY_SOURCE, tag=ANY_TAG)
        mb.deliver(mkenv(src=1, tag=5))
        assert r_exact.done and not r_wild.done

    def test_any_source_fixed_tag_scans_only_matching_buckets(self, mb):
        mb.deliver(mkenv(src=1, tag=5, n=1))
        mb.deliver(mkenv(src=2, tag=6, n=2))
        mb.deliver(mkenv(src=2, tag=5, n=3))
        req, got = post(mb, source=ANY_SOURCE, tag=5)
        assert got[0].nelems == 1   # earliest arrival with tag 5
        req, got = post(mb, source=ANY_SOURCE, tag=5)
        assert got[0].nelems == 3

    def test_deep_same_key_queue_stays_fifo(self, mb):
        for i in range(50):
            mb.deliver(mkenv(n=i + 1))
        for i in range(50):
            req, got = post(mb)
            assert got[0].nelems == i + 1

    def test_cancel_wildcard_posted(self, mb):
        req, _ = post(mb, source=ANY_SOURCE, tag=ANY_TAG)
        assert mb.cancel_recv(req)
        assert req.cancelled
        assert mb.pending_counts() == (0, 0)

    def test_borrowed_unexpected_payload_is_claimed(self, mb):
        import numpy as np
        pool = bytearray(np.arange(3, dtype=np.int32).tobytes())
        env = Envelope(src=1, dst=0, context=0, tag=5,
                       payload=np.frombuffer(pool, dtype=np.int32),
                       nelems=3)
        env.borrowed = True
        mb.deliver(env)                      # no posted recv: queued
        pool[:] = b"\xee" * len(pool)        # transport reuses the pool
        req, got = post(mb)
        assert list(got[0].payload) == [0, 1, 2]


class TestDirectClaim:
    """Pump-side header-peek commit (the zero-staging eager landing)."""

    def _peek(self, nelems=3, src=1, tag=5, context=0):
        import numpy as np
        env = Envelope(src=src, dst=0, context=context, tag=tag,
                       nelems=nelems)
        env.rndv_dtype = np.dtype(np.int32)
        env.rndv_nbytes = nelems * 4
        return env

    def test_no_posted_recv_returns_none(self, mb):
        assert mb.claim_direct_recv(self._peek()) is None

    def test_posted_without_view_hook_returns_none(self, mb):
        post(mb)   # helper posts with recv_views=None
        assert mb.claim_direct_recv(self._peek()) is None

    def test_claim_consumes_the_posted_recv(self, mb):
        import numpy as np
        target = np.zeros(3, dtype=np.int32)
        req = RequestImpl(FakeUniverse(), RequestImpl.KIND_RECV)
        mb.post_recv(req, 1, 5, 0, lambda env: (0, SUCCESS, ""),
                     recv_views=lambda env: [memoryview(target).cast("B")])
        got = mb.claim_direct_recv(self._peek())
        assert got is not None
        posted, views = got
        assert posted.req is req
        assert sum(len(v) for v in views) == 12
        assert mb.pending_counts() == (0, 0)   # consumed, not re-matchable

    def test_view_decline_leaves_recv_posted(self, mb):
        req = RequestImpl(FakeUniverse(), RequestImpl.KIND_RECV)
        mb.post_recv(req, 1, 5, 0, lambda env: (0, SUCCESS, ""),
                     recv_views=lambda env: None)
        assert mb.claim_direct_recv(self._peek()) is None
        assert mb.pending_counts() == (0, 1)


class TestAbortDelivery:
    def test_abort_envelope_forwarded_to_universe(self, mb):
        from repro.runtime.envelope import encode_abort_env
        env = encode_abort_env(2, 23, ValueError("cause"))
        mb.deliver(env)
        # the mailbox hands the whole envelope to the universe so a
        # process-isolated receiver can reconstruct the AbortException
        assert mb.universe.abort_envs == [env]
        unexpected, posted = mb.pending_counts()
        assert unexpected == 0 and posted == 0


# ---------------------------------------------------------------------------
# the failure plane walks the posted queues (no receive subscribes)
# ---------------------------------------------------------------------------

ME, DEAD, LIVE = 0, 1, 2


@pytest.fixture
def job():
    """A three-rank in-process job seen from rank 0: rank 1 is the one
    that dies (or whose communicator is revoked), rank 2 stays alive."""
    universe = Universe(3)
    try:
        yield universe, RankRuntime(universe, ME).comm_world
    finally:
        universe.close()


def _land(env):
    return env.nelems, SUCCESS, ""


def _post(kind, comm):
    """Post one pending receive of ``kind``; returns its request."""
    buf = np.zeros(4, dtype=np.int32)
    if kind == "exact":
        return comm.irecv(buf, 0, 4, P.INT, DEAD, 5)
    if kind == "any_source":
        return comm.irecv(buf, 0, 4, P.INT, ANY_SOURCE, 5)
    if kind == "any_tag":
        return comm.irecv(buf, 0, 4, P.INT, DEAD, ANY_TAG)
    assert kind == "coll_sub"
    return comm.coll_post_recv(DEAD, 77, _land)


def _fire(event, universe, comm):
    if event == "death":
        universe.note_peer_failure(DEAD, ConnectionError("rank 1 lost"))
    else:
        universe.note_revoked((comm.ctx_pt2pt, comm.ctx_coll), (),
                              origin_rank=LIVE)


def _assert_failed_once(req, completions, event, kind, universe, comm):
    assert completions == [req], completions
    if event == "death":
        assert req.error == ERR_PROC_FAILED and req.ft_failed_rank == DEAD
        with pytest.raises(ProcFailedException) as ei:
            req.wait()
        assert ei.value.failed_rank == DEAD
    else:
        want = comm.ctx_coll if kind == "coll_sub" else comm.ctx_pt2pt
        assert req.error == ERR_REVOKED and req.ft_revoked_context == want
        with pytest.raises(RevokedException) as ei:
            req.wait()
        assert ei.value.context == want
    mb = universe.mailboxes[ME]
    assert mb.pending_counts() == (0, 0), mb.pending_summary()
    assert len(universe._failure_listeners) == 0


KINDS = ["exact", "any_source", "any_tag", "coll_sub"]
EVENTS = ["death", "revoke"]


class TestFailureWalk:
    @pytest.mark.parametrize("event", EVENTS)
    @pytest.mark.parametrize("kind", KINDS)
    def test_while_queued(self, job, kind, event):
        universe, comm = job
        req = _post(kind, comm)
        completions = []
        req.add_listener(completions.append)
        assert not req.done and not universe._failure_listeners
        _fire(event, universe, comm)
        _assert_failed_once(req, completions, event, kind, universe, comm)
        _fire(event, universe, comm)            # a repeat changes nothing
        assert completions == [req]

    @pytest.mark.parametrize("kind", KINDS)
    def test_death_on_record_before_the_post(self, job, kind):
        universe, comm = job
        _fire("death", universe, comm)
        req = _post(kind, comm)
        assert req.done                          # failed on the spot
        _assert_failed_once(req, [req], "death", kind, universe, comm)

    def test_revoke_on_record_before_the_post(self, job):
        universe, comm = job
        _fire("revoke", universe, comm)
        with pytest.raises(RevokedException):    # refused at the call
            _post("exact", comm)
        req = _post("coll_sub", comm)            # internal: completes
        _assert_failed_once(req, [req], "revoke", "coll_sub", universe,
                            comm)

    @pytest.mark.parametrize("window", ["before_enqueue", "after_enqueue"])
    @pytest.mark.parametrize("event", EVENTS)
    @pytest.mark.parametrize("kind", KINDS)
    def test_event_inside_the_post(self, job, kind, event, window,
                                   monkeypatch):
        """The event lands between the scope being recorded and the
        receive being queued (the walk misses it; the on-record check
        after the post catches it), or between the queueing and that
        check (the walk fails it; the check finds it done)."""
        universe, comm = job
        real = Mailbox.post_recv

        def post_recv(self, req, *args):
            if window == "before_enqueue":
                _fire(event, universe, comm)
            real(self, req, *args)
            if window == "after_enqueue":
                assert self.pending_counts()[1] == 1
                _fire(event, universe, comm)

        monkeypatch.setattr(Mailbox, "post_recv", post_recv)
        req = _post(kind, comm)
        completions = []
        req.add_listener(completions.append)
        _assert_failed_once(req, completions, event, kind, universe, comm)

    @pytest.mark.parametrize("event", EVENTS)
    def test_obj_recv(self, job, event):
        """Management traffic fails on a dead peer and ignores
        revocation (Shrink and Agree run on revoked communicators)."""
        universe, comm = job
        out = []

        def receiver():
            try:
                out.append(comm.obj_recv(DEAD, 9))
            except ProcFailedException as exc:
                out.append(exc.failed_rank)

        t = threading.Thread(target=receiver, daemon=True)
        t.start()
        mb = universe.mailboxes[ME]
        while mb.pending_counts()[1] == 0:
            time.sleep(0.001)
        _fire(event, universe, comm)
        if event == "revoke":
            t.join(0.1)
            assert t.is_alive() and out == []
            peer = RankRuntime(universe, DEAD).comm_world
            peer.obj_send({"still": "delivered"}, ME, 9)
        t.join(10)
        assert out == [DEAD if event == "death" else {"still": "delivered"}]
        assert mb.pending_counts() == (0, 0)

    def test_live_peers_receive_is_untouched(self, job):
        universe, comm = job
        buf = np.zeros(4, dtype=np.int32)
        doomed = comm.irecv(buf, 0, 4, P.INT, DEAD, 5)
        live = comm.irecv(buf, 0, 4, P.INT, LIVE, 5)
        _fire("death", universe, comm)
        assert doomed.done and not live.done
        mb = universe.mailboxes[ME]
        assert mb.pending_counts() == (0, 1)
        mb.deliver(mkenv(src=LIVE, n=4))
        live.wait()
        assert live.status_source_world == LIVE and buf.tolist() == [0, 1, 2, 3]

    def test_concurrent_with_the_matching_arrival(self, job):
        """The arrival match removes the receive while the walk is
        failing it: one completion either way — the message's or the
        error's — and no receive left behind."""
        universe, comm = job
        mb = universe.mailboxes[ME]
        outcomes = set()
        for i in range(300):
            universe.failed_ranks.clear()
            req = _post("exact", comm)
            completions = []
            req.add_listener(completions.append)
            go = threading.Barrier(2)

            def arrive():
                go.wait()
                mb.deliver(mkenv(src=DEAD, n=4))

            t = threading.Thread(target=arrive)
            t.start()
            go.wait()
            if i & 1:
                time.sleep(0)
            _fire("death", universe, comm)
            t.join(10)
            assert completions == [req]
            assert req.error in (SUCCESS, ERR_PROC_FAILED)
            outcomes.add(req.error)
            # a message that lost the race waits unexpected; drain it
            unexpected, posted = mb.pending_counts()
            assert posted == 0 and unexpected <= 1
            if unexpected:
                assert req.error == ERR_PROC_FAILED
                universe.failed_ranks.clear()
                _post("exact", comm).wait()
        assert outcomes <= {SUCCESS, ERR_PROC_FAILED}

    def test_walk_does_not_wait_for_a_landing_in_flight(self, job):
        """H5: the walk snapshots under the mailbox lock and fails
        outside it; a receive whose ``land`` is mid-flight in another
        thread (consumed, so not the walk's to fail) neither blocks the
        walk nor is completed twice."""
        universe, comm = job
        mb = universe.mailboxes[ME]
        landing, release = threading.Event(), threading.Event()

        def slow_land(env):
            landing.set()
            assert release.wait(10)
            return env.nelems, SUCCESS, ""

        in_flight = comm.coll_post_recv(DEAD, 70, slow_land)
        queued = comm.coll_post_recv(DEAD, 71, _land)
        done = []
        in_flight.add_listener(done.append)
        t = threading.Thread(
            target=mb.deliver,
            args=(mkenv(src=DEAD, tag=70, context=comm.ctx_coll),))
        t.start()
        assert landing.wait(10)
        _fire("death", universe, comm)           # must return: no lock held
        assert queued.done and queued.error == ERR_PROC_FAILED
        assert not in_flight.done
        release.set()
        t.join(10)
        assert done == [in_flight] and in_flight.error == SUCCESS
        assert mb.pending_counts() == (0, 0)

    def test_receive_matched_to_an_rts_subscribes_and_still_fails(self,
                                                                  job):
        """H4: matched to a request-to-send the receive leaves the queue
        still pending — parked in the transport until the payload comes —
        so from that moment it listens for itself."""
        universe, comm = job
        mb = universe.mailboxes[ME]
        parked = []
        rts = Envelope(kind=KIND_RTS, src=DEAD, dst=ME,
                       context=comm.ctx_pt2pt, tag=5, nelems=4)
        rts.rndv_accept = parked.append
        for arrival_first in (False, True):
            universe.failed_ranks.clear()
            if arrival_first:
                mb.deliver(rts)
            req = _post("exact", comm)
            if not arrival_first:
                assert not universe._failure_listeners
                mb.deliver(rts)
            assert parked.pop().req is req and not req.done
            assert mb.pending_counts() == (0, 0)
            assert len(universe._failure_listeners) == 1
            _fire("death", universe, comm)
            assert req.error == ERR_PROC_FAILED \
                and req.ft_failed_rank == DEAD
            assert not universe._failure_listeners
