"""``MPI_Gather`` / ``MPI_Gatherv`` / ``MPI_Igather`` (linear to the root).

Per MPI, segment ``r`` lands at ``recvoffset + r*recvcount*extent(recvtype)``
(or at ``recvoffset + displs[r]*extent`` for Gatherv, with per-rank counts).
"""

from __future__ import annotations

from repro.errors import MPIException, ERR_ARG
from repro.runtime.collective.common import (check_root, extract_contrib,
                                             land_contrib)
from repro.runtime.nbc import Box, Recv, Send


def plan_gather(comm, sendbuf, soffset, scount, sdtype, recvbuf, roffset,
                rcount, rdtype, root):
    comm._check_alive()
    comm._require_intra("Gather")
    check_root(comm, root)
    stride = rcount * rdtype.extent_elems

    def landing(r):
        return roffset + r * stride, rcount

    return _build_gather(comm, "Gather", sendbuf, soffset, scount, sdtype,
                         recvbuf, rdtype, root, landing)


def plan_gatherv(comm, sendbuf, soffset, scount, sdtype, recvbuf, roffset,
                 rcounts, displs, rdtype, root):
    comm._check_alive()
    comm._require_intra("Gatherv")
    check_root(comm, root)
    if comm.rank == root and (len(rcounts) != comm.size
                              or len(displs) != comm.size):
        raise MPIException(ERR_ARG,
                           f"Gatherv needs {comm.size} counts/displs, got "
                           f"{len(rcounts)}/{len(displs)}")
    ext = rdtype.extent_elems

    def landing(r):
        return roffset + int(displs[r]) * ext, int(rcounts[r])

    return _build_gather(comm, "Gatherv", sendbuf, soffset, scount, sdtype,
                         recvbuf, rdtype, root, landing)


def _build_gather(comm, name, sendbuf, soffset, scount, sdtype,
                  recvbuf, rdtype, root, landing):
    """Linear gather; ``landing(r)`` gives segment r's (offset, count)."""

    def build(sched):
        tag = comm.next_coll_tag()
        mine = extract_contrib(sendbuf, soffset, scount, sdtype)
        if comm.rank != root:
            sched.round(Send(root, mine, tag))
            return
        boxes = {r: Box(mine) if r == root else Box()
                 for r in range(comm.size)}
        sched.round(*[Recv(r, tag, boxes[r])
                      for r in range(comm.size) if r != root])

        def land_all():
            for r in range(comm.size):
                off, cnt = landing(r)
                land_contrib(recvbuf, off, cnt, rdtype, boxes[r].contrib)

        sched.compute(land_all)

    return name, build
