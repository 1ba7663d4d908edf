"""``Intracomm`` — communicators over a single group: collectives and
communicator/topology construction (paper Figure 1)."""

from __future__ import annotations

from typing import Optional

from repro.jni import capi, handles as H
from repro.mpijava.comm import Comm
from repro.mpijava.group import Group
from repro.mpijava.op import Op
from repro.mpijava.request import Request


class Intracomm(Comm):
    """Intra-communicator: all of chapter 4 plus Split/Create/topologies."""

    __slots__ = ()

    # ------------------------------------------------------------------
    # collectives (MPI 1.1 chapter 4)
    # ------------------------------------------------------------------
    def Barrier(self) -> None:
        """Block until every member has entered the barrier."""
        self._guard(capi.mpi_barrier, self._handle)

    def Bcast(self, buf, offset, count, datatype, root) -> None:
        """Broadcast from ``root`` to all members."""
        self._guard(capi.mpi_bcast, self._handle, buf, offset, count,
                    datatype._handle, root)

    def Gather(self, sendbuf, soffset, scount, sdtype,
               recvbuf, roffset, rcount, rdtype, root) -> None:
        self._guard(capi.mpi_gather, self._handle, sendbuf, soffset, scount,
                    sdtype._handle, recvbuf, roffset, rcount,
                    rdtype._handle, root)

    def Gatherv(self, sendbuf, soffset, scount, sdtype,
                recvbuf, roffset, rcounts, displs, rdtype, root) -> None:
        self._guard(capi.mpi_gatherv, self._handle, sendbuf, soffset,
                    scount, sdtype._handle, recvbuf, roffset, rcounts,
                    displs, rdtype._handle, root)

    def Scatter(self, sendbuf, soffset, scount, sdtype,
                recvbuf, roffset, rcount, rdtype, root) -> None:
        self._guard(capi.mpi_scatter, self._handle, sendbuf, soffset,
                    scount, sdtype._handle, recvbuf, roffset, rcount,
                    rdtype._handle, root)

    def Scatterv(self, sendbuf, soffset, scounts, displs, sdtype,
                 recvbuf, roffset, rcount, rdtype, root) -> None:
        self._guard(capi.mpi_scatterv, self._handle, sendbuf, soffset,
                    scounts, displs, sdtype._handle, recvbuf, roffset,
                    rcount, rdtype._handle, root)

    def Allgather(self, sendbuf, soffset, scount, sdtype,
                  recvbuf, roffset, rcount, rdtype) -> None:
        self._guard(capi.mpi_allgather, self._handle, sendbuf, soffset,
                    scount, sdtype._handle, recvbuf, roffset, rcount,
                    rdtype._handle)

    def Allgatherv(self, sendbuf, soffset, scount, sdtype,
                   recvbuf, roffset, rcounts, displs, rdtype) -> None:
        self._guard(capi.mpi_allgatherv, self._handle, sendbuf, soffset,
                    scount, sdtype._handle, recvbuf, roffset, rcounts,
                    displs, rdtype._handle)

    def Alltoall(self, sendbuf, soffset, scount, sdtype,
                 recvbuf, roffset, rcount, rdtype) -> None:
        self._guard(capi.mpi_alltoall, self._handle, sendbuf, soffset,
                    scount, sdtype._handle, recvbuf, roffset, rcount,
                    rdtype._handle)

    def Alltoallv(self, sendbuf, soffset, scounts, sdispls, sdtype,
                  recvbuf, roffset, rcounts, rdispls, rdtype) -> None:
        self._guard(capi.mpi_alltoallv, self._handle, sendbuf, soffset,
                    scounts, sdispls, sdtype._handle, recvbuf, roffset,
                    rcounts, rdispls, rdtype._handle)

    def Reduce(self, sendbuf, soffset, recvbuf, roffset, count, datatype,
               op: Op, root) -> None:
        """Combine contributions with ``op``; result at ``root``."""
        self._guard(capi.mpi_reduce, self._handle, sendbuf, soffset,
                    recvbuf, roffset, count, datatype._handle, op._handle,
                    root)

    def Allreduce(self, sendbuf, soffset, recvbuf, roffset, count,
                  datatype, op: Op) -> None:
        self._guard(capi.mpi_allreduce, self._handle, sendbuf, soffset,
                    recvbuf, roffset, count, datatype._handle, op._handle)

    def Reduce_scatter(self, sendbuf, soffset, recvbuf, roffset,
                       recvcounts, datatype, op: Op) -> None:
        self._guard(capi.mpi_reduce_scatter, self._handle, sendbuf, soffset,
                    recvbuf, roffset, recvcounts, datatype._handle,
                    op._handle)

    def Scan(self, sendbuf, soffset, recvbuf, roffset, count, datatype,
             op: Op) -> None:
        """Inclusive prefix reduction along ranks."""
        self._guard(capi.mpi_scan, self._handle, sendbuf, soffset, recvbuf,
                    roffset, count, datatype._handle, op._handle)

    # ------------------------------------------------------------------
    # nonblocking collectives (schedule-based; complete via Request)
    # ------------------------------------------------------------------
    def Ibarrier(self) -> Request:
        """Nonblocking barrier; complete via ``Wait``/``Test``."""
        return Request(self._guard(capi.mpi_ibarrier, self._handle))

    def Ibcast(self, buf, offset, count, datatype, root) -> Request:
        """Nonblocking broadcast; ``buf`` is off-limits until complete."""
        return Request(self._guard(capi.mpi_ibcast, self._handle, buf,
                                   offset, count, datatype._handle, root))

    def Igather(self, sendbuf, soffset, scount, sdtype,
                recvbuf, roffset, rcount, rdtype, root) -> Request:
        return Request(self._guard(capi.mpi_igather, self._handle, sendbuf,
                                   soffset, scount, sdtype._handle,
                                   recvbuf, roffset, rcount,
                                   rdtype._handle, root))

    def Iscatter(self, sendbuf, soffset, scount, sdtype,
                 recvbuf, roffset, rcount, rdtype, root) -> Request:
        return Request(self._guard(capi.mpi_iscatter, self._handle,
                                   sendbuf, soffset, scount, sdtype._handle,
                                   recvbuf, roffset, rcount,
                                   rdtype._handle, root))

    def Iallgather(self, sendbuf, soffset, scount, sdtype,
                   recvbuf, roffset, rcount, rdtype) -> Request:
        return Request(self._guard(capi.mpi_iallgather, self._handle,
                                   sendbuf, soffset, scount, sdtype._handle,
                                   recvbuf, roffset, rcount,
                                   rdtype._handle))

    def Ialltoall(self, sendbuf, soffset, scount, sdtype,
                  recvbuf, roffset, rcount, rdtype) -> Request:
        return Request(self._guard(capi.mpi_ialltoall, self._handle,
                                   sendbuf, soffset, scount, sdtype._handle,
                                   recvbuf, roffset, rcount,
                                   rdtype._handle))

    def Ireduce(self, sendbuf, soffset, recvbuf, roffset, count, datatype,
                op: Op, root) -> Request:
        return Request(self._guard(capi.mpi_ireduce, self._handle, sendbuf,
                                   soffset, recvbuf, roffset, count,
                                   datatype._handle, op._handle, root))

    def Iallreduce(self, sendbuf, soffset, recvbuf, roffset, count,
                   datatype, op: Op) -> Request:
        return Request(self._guard(capi.mpi_iallreduce, self._handle,
                                   sendbuf, soffset, recvbuf, roffset,
                                   count, datatype._handle, op._handle))

    # ------------------------------------------------------------------
    # communicator construction
    # ------------------------------------------------------------------
    def Create(self, group: Group) -> Optional["Intracomm"]:
        """New communicator over ``group``; None on non-members (the null
        handle becomes a null result, paper §2.1)."""
        h = self._guard(capi.mpi_comm_create, self._handle, group._handle)
        return None if h == H.COMM_NULL else Intracomm(h)

    def Split(self, color: int, key: int) -> Optional["Intracomm"]:
        """Partition by color, order by key; None for ``MPI.UNDEFINED``."""
        h = self._guard(capi.mpi_comm_split, self._handle, color, key)
        return None if h == H.COMM_NULL else Intracomm(h)

    def Create_intercomm(self, local_leader: int, peer_comm: Comm,
                         remote_leader: int, tag: int) -> "Intercomm":
        from repro.mpijava.intercomm import Intercomm
        return Intercomm(self._guard(capi.mpi_intercomm_create,
                                     self._handle, local_leader,
                                     peer_comm._handle, remote_leader, tag))

    # ------------------------------------------------------------------
    # virtual topologies
    # ------------------------------------------------------------------
    def Create_cart(self, dims, periods, reorder: bool) \
            -> Optional["Cartcomm"]:
        from repro.mpijava.cartcomm import Cartcomm
        h = self._guard(capi.mpi_cart_create, self._handle, dims, periods,
                        reorder)
        return None if h == H.COMM_NULL else Cartcomm(h)

    def Create_graph(self, index, edges, reorder: bool) \
            -> Optional["Graphcomm"]:
        from repro.mpijava.graphcomm import Graphcomm
        h = self._guard(capi.mpi_graph_create, self._handle, index, edges,
                        reorder)
        return None if h == H.COMM_NULL else Graphcomm(h)
