"""Metrics registry: exact totals under contention, read by snapshot."""

import threading

import numpy as np
from repro.executor.runner import MPIExecutor
from repro.jni import capi, handles as H
from repro.obs.metrics import (CounterGroup, Gauge, MetricsRegistry,
                               REGISTRY)


class TestCounterGroup:
    def test_declared_keys_start_at_zero(self):
        g = CounterGroup("t", ("a", "b"), registry=None)
        assert g.snapshot() == {"a": 0, "b": 0}

    def test_inc_is_an_atomic_batch(self):
        g = CounterGroup("t", ("a", "b"), registry=None)
        g.inc(a=2, b=3)
        g.inc(a=1)
        assert g.snapshot() == {"a": 3, "b": 3}

    def test_undeclared_keys_appear_on_first_use(self):
        g = CounterGroup("t", registry=None)
        g.add("late", 7)
        assert g.snapshot()["late"] == 7

    def test_snapshot_is_a_detached_dict(self):
        g = CounterGroup("t", ("x", "y"), registry=None)
        g.inc(x=5)
        snap = g.snapshot()
        g.inc(x=1)
        assert snap == {"x": 5, "y": 0}

    def test_reset_zeroes_in_place(self):
        g = CounterGroup("t", ("a",), registry=None)
        g.inc(a=9)
        g.reset()
        assert g.snapshot()["a"] == 0

    def test_concurrent_increments_are_exact(self):
        g = CounterGroup("t", ("n",), registry=None)
        threads = 8
        per_thread = 5000

        def worker():
            for _ in range(per_thread):
                g.inc(n=1)

        ts = [threading.Thread(target=worker) for _ in range(threads)]
        for t in ts:
            t.start()
        for t in ts:
            t.join()
        assert g.snapshot()["n"] == threads * per_thread


class TestGauge:
    def test_last_value_wins(self):
        g = Gauge("depth")
        g.set(3)
        g.set(1)
        assert g.value == 1


class TestRegistry:
    def test_groups_index_and_aggregate(self):
        reg = MetricsRegistry()
        a = CounterGroup("wire", ("f",), registry=reg)
        b = CounterGroup("wire", ("f",), registry=reg)
        a.inc(f=2)
        b.inc(f=3)
        assert reg.aggregate("wire") == {"f": 5}
        assert len(reg.groups("wire")) == 2
        assert reg.groups("other") == {}

    def test_dead_groups_fall_out(self):
        reg = MetricsRegistry()
        a = CounterGroup("wire", ("f",), registry=reg)
        a.inc(f=1)
        del a
        assert reg.aggregate("wire") == {}

    def test_scalar_counter_and_gauge_get_or_create(self):
        reg = MetricsRegistry()
        c = reg.counter("events")
        assert reg.counter("events") is c
        c.add("seen")
        g = reg.gauge("depth")
        assert reg.gauge("depth") is g
        g.set(4)
        snap = reg.snapshot()
        assert snap["counters"]["events"] == {"seen": 1}
        assert snap["gauges"]["depth"] == 4

    def test_default_registry_indexes_new_groups(self):
        before = len(REGISTRY.groups("testgrp"))
        g = CounterGroup("testgrp", ("k",))
        try:
            assert len(REGISTRY.groups("testgrp")) == before + 1
        finally:
            del g


class TestWireStatsFold:
    """The PR-4 ad-hoc dicts are registry groups."""

    def test_wire_stats_is_a_counter_group(self):
        from repro.transport.socket_tcp import SocketTransport
        tr = SocketTransport(2)
        try:
            assert isinstance(tr.wire_stats, CounterGroup)
            assert tr.wire_stats.snapshot()["eager_frames"] == 0
            assert tr.wire_stats.name == "wire"
        finally:
            tr.close()

    def test_threads_dm_concurrent_send_totals_exact(self):
        """Every rank bombards rank 0; eager frame counts must be exact."""
        nprocs, per_rank = 4, 25
        with MPIExecutor(nprocs, transport="socket") as ex:
            transport = ex.universe.transport

            def body():
                rank = capi.mpi_comm_rank(H.COMM_WORLD)
                buf = np.zeros(64, dtype=np.int8)
                if rank == 0:
                    for _ in range((nprocs - 1) * per_rank):
                        capi.mpi_recv(H.COMM_WORLD, buf, 0, 64,
                                      H.DT_BYTE, -2, 7)
                else:
                    for _ in range(per_rank):
                        capi.mpi_send(H.COMM_WORLD, buf, 0, 64,
                                      H.DT_BYTE, 0, 7)
                capi.mpi_barrier(H.COMM_WORLD)

            ex.run(body)
            stats = transport.wire_stats.snapshot()
        # 64 B messages ride the eager path, and every one crosses the
        # wire; the barrier adds its own frames on top, so the bound is
        # a floor the bombardment alone must account for exactly
        assert stats["eager_frames"] >= (nprocs - 1) * per_rank
        total = REGISTRY.aggregate("wire")
        assert total["eager_frames"] >= stats["eager_frames"]

    def test_packets_staged_is_a_counter_group(self):
        from repro.transport.chunked import ChunkedTransport
        tr = ChunkedTransport(2)
        try:
            assert tr.metrics.snapshot() == {"packets_staged": 0}
            assert tr.metrics.name == "chunked"
        finally:
            tr.close()
