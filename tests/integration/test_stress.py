"""Stress and concurrency: many messages, mixed traffic, random patterns."""

import numpy as np
import pytest

from repro.mpijava import MPI, Request
from tests.conftest import run


class TestVolume:
    def test_many_small_messages_ordered(self, mode_transport):
        N = 300

        def body():
            w = MPI.COMM_WORLD
            if w.Rank() == 0:
                for i in range(N):
                    w.Send(np.array([i], dtype=np.int32), 0, 1, MPI.INT,
                           1, i % 7)
                return None
            buf = np.zeros(1, dtype=np.int32)
            got = []
            for i in range(N):
                w.Recv(buf, 0, 1, MPI.INT, 0, i % 7)
                got.append(int(buf[0]))
            return got == list(range(N))

        assert run(2, body, transport=mode_transport)[1]

    def test_large_message(self, mode_transport):
        def body():
            w = MPI.COMM_WORLD
            n = 1 << 20  # 1M doubles = 8 MB
            if w.Rank() == 0:
                data = np.arange(n, dtype=np.float64)
                w.Send(data, 0, n, MPI.DOUBLE, 1, 0)
                return None
            buf = np.zeros(n, dtype=np.float64)
            w.Recv(buf, 0, n, MPI.DOUBLE, 0, 0)
            return float(buf[-1])

        assert run(2, body, transport=mode_transport)[1] == float((1 << 20)
                                                                  - 1)

    def test_outstanding_requests_flood(self, mode_transport):
        N = 100

        def body():
            w = MPI.COMM_WORLD
            if w.Rank() == 0:
                reqs = [w.Isend(np.array([i], dtype=np.int32), 0, 1,
                                MPI.INT, 1, i) for i in range(N)]
                Request.Waitall(reqs)
                return None
            bufs = [np.zeros(1, dtype=np.int32) for _ in range(N)]
            reqs = [w.Irecv(bufs[i], 0, 1, MPI.INT, 0, i)
                    for i in range(N)]
            Request.Waitall(reqs)
            return all(int(bufs[i][0]) == i for i in range(N))

        assert run(2, body, transport=mode_transport)[1]


class TestPatterns:
    def test_all_pairs_exchange(self, mode_transport):
        def body():
            w = MPI.COMM_WORLD
            me, size = w.Rank(), w.Size()
            reqs = []
            inboxes = {}
            for peer in range(size):
                if peer == me:
                    continue
                inboxes[peer] = np.zeros(1, dtype=np.int32)
                reqs.append(w.Irecv(inboxes[peer], 0, 1, MPI.INT, peer,
                                    0))
                reqs.append(w.Isend(np.array([me], dtype=np.int32), 0, 1,
                                    MPI.INT, peer, 0))
            Request.Waitall(reqs)
            return all(int(inboxes[p][0]) == p for p in inboxes)

        assert all(run(5, body, transport=mode_transport))

    def test_random_rings(self, mode_transport):
        """Data circulates a randomized ring; every rank must see every
        value exactly once."""
        def body():
            rng = np.random.default_rng(7)   # same permutation everywhere
            w = MPI.COMM_WORLD
            me, size = w.Rank(), w.Size()
            perm = list(rng.permutation(size))
            pos = perm.index(me)
            right = perm[(pos + 1) % size]
            left = perm[(pos - 1) % size]
            value = np.array([me], dtype=np.int32)
            seen = [me]
            for _ in range(size - 1):
                out = np.zeros(1, dtype=np.int32)
                w.Sendrecv(value, 0, 1, MPI.INT, right, 1,
                           out, 0, 1, MPI.INT, left, 1)
                value = out
                seen.append(int(out[0]))
            return sorted(seen)

        out = run(5, body, transport=mode_transport)
        assert all(row == [0, 1, 2, 3, 4] for row in out)

    def test_mixed_collective_and_ptp_traffic(self, mode_transport):
        """Collectives and point-to-point on the same communicator must
        not interfere (separate contexts)."""
        def body():
            w = MPI.COMM_WORLD
            me, size = w.Rank(), w.Size()
            total = np.zeros(1, dtype=np.int64)
            for round_no in range(10):
                if me == 0:
                    w.Send(np.array([round_no], dtype=np.int32), 0, 1,
                           MPI.INT, 1, 0)
                elif me == 1:
                    buf = np.zeros(1, dtype=np.int32)
                    w.Recv(buf, 0, 1, MPI.INT, 0, 0)
                    assert int(buf[0]) == round_no
                sb = np.array([me + round_no], dtype=np.int64)
                w.Allreduce(sb, 0, total, 0, 1, MPI.LONG, MPI.SUM)
            return int(total[0])

        out = run(3, body, transport=mode_transport)
        assert all(v == (0 + 1 + 2) + 3 * 9 for v in out)

    def test_repeated_comm_creation(self, mode_transport):
        """Create/destroy communicators in a loop: context ids must not
        collide across generations."""
        def body():
            w = MPI.COMM_WORLD
            for gen in range(8):
                sub = w.Split(w.Rank() % 2, w.Rank())
                buf = np.array([gen], dtype=np.int32)
                out = np.zeros(1, dtype=np.int32)
                sub.Allreduce(buf, 0, out, 0, 1, MPI.INT, MPI.MAX)
                assert int(out[0]) == gen
                sub.Free()
            return True

        assert all(run(4, body, transport=mode_transport))


class TestWildcardRace:
    def test_any_source_flood(self, mode_transport):
        """Many senders racing into ANY_SOURCE receives: each message
        consumed exactly once."""
        PER = 20

        def body():
            w = MPI.COMM_WORLD
            me, size = w.Rank(), w.Size()
            if me != 0:
                for i in range(PER):
                    w.Send(np.array([me * 1000 + i], dtype=np.int32), 0,
                           1, MPI.INT, 0, 3)
                return None
            buf = np.zeros(1, dtype=np.int32)
            seen = []
            for _ in range(PER * (size - 1)):
                w.Recv(buf, 0, 1, MPI.INT, MPI.ANY_SOURCE, 3)
                seen.append(int(buf[0]))
            expected = sorted(m * 1000 + i for m in range(1, size)
                              for i in range(PER))
            return sorted(seen) == expected

        assert run(4, body, transport=mode_transport)[0]


class TestLargeCollectivesOverSockets:
    """A collective round's continuation runs in whichever thread landed
    the round's last receive — on a wire transport the pump — and issues
    the next round's sends.  A pump that blocks in one of those writes
    stops draining its own sockets; with payloads above what a socket
    buffer takes (AF_UNIX: ~208 KiB) four ranks deadlocked that way.
    Sizes straddle that buffer; results are checked because the fix
    reroutes sends through the writer thread and must keep pair order.
    """

    ITERS = 20
    KIB = (64, 200, 230, 250, 1024)

    @staticmethod
    def _allreduce(w, n, it, nonblocking=False):
        rank, size = w.Rank(), w.Size()
        out = np.empty(n)
        mine = np.full(n, float(rank + it))
        if nonblocking:
            w.Iallreduce(mine, 0, out, 0, n, MPI.DOUBLE, MPI.SUM).Wait()
        else:
            w.Allreduce(mine, 0, out, 0, n, MPI.DOUBLE, MPI.SUM)
        want = float(sum(range(size)) + size * it)
        return out[0] == want and out[-1] == want

    @staticmethod
    def _iallreduce(w, n, it):
        return TestLargeCollectivesOverSockets._allreduce(w, n, it, True)

    @staticmethod
    def _alltoall(w, n, it):
        rank, size = w.Rank(), w.Size()
        send = np.repeat(np.arange(float(size)) + 10 * rank + it, n)
        recv = np.empty(n * size)
        w.Alltoall(send, 0, n, MPI.DOUBLE, recv, 0, n, MPI.DOUBLE)
        return all(recv[q * n] == recv[q * n + n - 1] == rank + 10 * q + it
                   for q in range(size))

    @staticmethod
    def _allgather(w, n, it):
        rank, size = w.Rank(), w.Size()
        recv = np.empty(n * size)
        w.Allgather(np.full(n, float(rank + it)), 0, n, MPI.DOUBLE,
                    recv, 0, n, MPI.DOUBLE)
        return all(recv[q * n] == recv[q * n + n - 1] == q + it
                   for q in range(size))

    @pytest.mark.parametrize("kib", KIB)
    @pytest.mark.parametrize("collective", ("allreduce", "iallreduce",
                                            "alltoall", "allgather"))
    def test_completes_with_right_answers(self, collective, kib):
        step = getattr(self, "_" + collective)

        def body():
            w = MPI.COMM_WORLD
            return all(step(w, kib * 1024 // 8, it)
                       for it in range(self.ITERS))

        # timeout=20: the parent commit hangs at 230 and 250 KiB
        assert all(run(4, body, transport="socket", timeout=20))

    def test_deferred_and_inline_sends_keep_pair_order(self):
        """Ring allreduce of 4 x 8192 + 1 doubles: consecutive rounds
        send one neighbour a 65 544-byte chunk (over the pump's inline
        limit: written by the writer thread) and then a 65 536-byte one
        (under it) on the same tag.  The second must not overtake."""
        n = 4 * 8192 + 1

        def body():
            w = MPI.COMM_WORLD
            rank, size = w.Rank(), w.Size()
            ramp = np.arange(float(n))
            out = np.empty(n)
            for it in range(self.ITERS):
                w.Allreduce(ramp * (rank + 1) + it, 0, out, 0, n,
                            MPI.DOUBLE, MPI.SUM)
                if not np.array_equal(
                        out, ramp * sum(range(1, size + 1)) + size * it):
                    return False
            return True

        assert all(run(4, body, transport="socket", timeout=20))
