"""Modeled benchmark mode: virtual clock + cost-model integration."""

import numpy as np
import pytest

from repro.executor.runner import MPIExecutor
from repro.jni import capi, handles as H
from repro.mpijava import MPI
from repro.runtime.engine import Universe
from repro.transport.inproc import InprocTransport
from repro.transport.modeled import ModeledTransport
from repro.transport.netmodel import ENVIRONMENTS
from repro.util.clock import VirtualClock


def modeled_universe(key="WMPI_SM", nprocs=2, wrapper=True):
    clock = VirtualClock()
    model = ENVIRONMENTS[key]
    transport = ModeledTransport(nprocs, model, clock,
                                 inner=InprocTransport(nprocs),
                                 wrapper=wrapper)
    return Universe(nprocs, transport=transport, clock=clock)


class TestVirtualWtime:
    def test_wtime_is_virtual(self):
        universe = modeled_universe()

        def body():
            capi.mpi_init([])
            t0 = capi.mpi_wtime()
            rank = capi.mpi_comm_rank(H.COMM_WORLD)
            buf = np.zeros(1, dtype=np.int8)
            if rank == 0:
                capi.mpi_send(H.COMM_WORLD, buf, 0, 1, H.DT_BYTE, 1, 0)
            else:
                capi.mpi_recv(H.COMM_WORLD, buf, 0, 1, H.DT_BYTE, 0, 0)
            capi.mpi_barrier(H.COMM_WORLD)
            t1 = capi.mpi_wtime()
            capi.mpi_finalize()
            return t1 - t0

        with MPIExecutor(2, universe=universe) as ex:
            deltas = ex.run(body)
        # virtual seconds: at least this rank's own barrier token
        # (~67.2 us of modeled software time), at most a few messages
        for d in deltas:
            assert 5e-5 < d < 1e-2

    def test_no_real_time_dependence(self):
        """The modeled result is a deterministic function of the message
        pattern, not of scheduling."""
        def one_run():
            universe = modeled_universe()

            def body():
                capi.mpi_init([])
                rank = capi.mpi_comm_rank(H.COMM_WORLD)
                buf = np.zeros(1000, dtype=np.int8)
                for _ in range(5):
                    if rank == 0:
                        capi.mpi_send(H.COMM_WORLD, buf, 0, 1000,
                                      H.DT_BYTE, 1, 0)
                        capi.mpi_recv(H.COMM_WORLD, buf, 0, 1000,
                                      H.DT_BYTE, 1, 0)
                    else:
                        capi.mpi_recv(H.COMM_WORLD, buf, 0, 1000,
                                      H.DT_BYTE, 0, 0)
                        capi.mpi_send(H.COMM_WORLD, buf, 0, 1000,
                                      H.DT_BYTE, 0, 0)
                capi.mpi_finalize()

            with MPIExecutor(2, universe=universe) as ex:
                ex.run(body)
            return universe.clock.now()

        assert one_run() == pytest.approx(one_run(), rel=1e-12)


def _oo_pingpong_body():
    MPI.Init([])
    w = MPI.COMM_WORLD
    buf = np.zeros(8, dtype=np.int8)
    if w.Rank() == 0:
        w.Send(buf, 0, 8, MPI.BYTE, 1, 0)
        w.Recv(buf, 0, 8, MPI.BYTE, 1, 0)
    else:
        w.Recv(buf, 0, 8, MPI.BYTE, 0, 0)
        w.Send(buf, 0, 8, MPI.BYTE, 0, 0)
    MPI.Finalize()


class TestWrapperCharging:
    """The ``-J`` wrapper term is charged by the transport, per data
    message: the binding itself charges nothing."""

    @staticmethod
    def _run(wrapper):
        universe = modeled_universe(wrapper=wrapper)
        with MPIExecutor(2, universe=universe) as ex:
            ex.run(_oo_pingpong_body)
        return universe.clock.now(), universe.transport.messages

    def test_j_universe_pays_the_wrapper_once_per_message(self):
        """The heart of the C-vs-J comparison: the same program, the
        same messages, and one ``wrapper_message_time`` more for each
        (the two 8-byte pingpong messages; Finalize's barrier messages
        carry nothing)."""
        t_j, n_j = self._run(wrapper=True)
        t_c, n_c = self._run(wrapper=False)
        assert n_j == n_c > 2
        model = ENVIRONMENTS["WMPI_SM"]
        extra = 2 * model.wrapper_message_time(8) \
            + (n_j - 2) * model.wrapper_message_time(0)
        assert t_j - t_c == pytest.approx(extra, rel=1e-9)

    def test_c_universe_charges_messages_only(self):
        universe = modeled_universe(wrapper=False)

        def body():
            MPI.Init([])
            w = MPI.COMM_WORLD
            buf = np.zeros(1, dtype=np.int8)
            if w.Rank() == 0:
                w.Send(buf, 0, 1, MPI.BYTE, 1, 0)
            else:
                w.Recv(buf, 0, 1, MPI.BYTE, 0, 0)
            t = MPI.Wtime()
            MPI.Finalize()
            return t

        model = ENVIRONMENTS["WMPI_SM"]
        with MPIExecutor(2, universe=universe) as ex:
            ex.run(body)
        # 1 data message + barrier traffic; no wrapper term despite
        # going through the OO layer
        total = universe.clock.now()
        n_messages = universe.transport.messages
        expected = sum([model.message_time(1)]
                       + [model.message_time(0)] * (n_messages - 1))
        assert total == pytest.approx(expected, rel=1e-9)
