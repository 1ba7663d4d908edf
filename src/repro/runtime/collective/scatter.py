"""``MPI_Scatter`` / ``MPI_Scatterv`` / ``MPI_Iscatter`` (linear from root)."""

from __future__ import annotations

from repro.errors import MPIException, ERR_ARG
from repro.runtime.collective.common import (check_root, extract_contrib,
                                             land_contrib)
from repro.runtime.nbc import Box, Recv, Send


def plan_scatter(comm, sendbuf, soffset, scount, sdtype, recvbuf, roffset,
                 rcount, rdtype, root):
    comm._check_alive()
    comm._require_intra("Scatter")
    check_root(comm, root)
    stride = scount * sdtype.extent_elems

    def segment(r):
        return soffset + r * stride, scount

    return _build_scatter(comm, "Scatter", sendbuf, sdtype, segment,
                          recvbuf, roffset, rcount, rdtype, root)


def plan_scatterv(comm, sendbuf, soffset, scounts, displs, sdtype, recvbuf,
                  roffset, rcount, rdtype, root):
    comm._check_alive()
    comm._require_intra("Scatterv")
    check_root(comm, root)
    if comm.rank == root and (len(scounts) != comm.size
                              or len(displs) != comm.size):
        raise MPIException(ERR_ARG,
                           f"Scatterv needs {comm.size} counts/displs, "
                           f"got {len(scounts)}/{len(displs)}")
    ext = sdtype.extent_elems

    def segment(r):
        return soffset + int(displs[r]) * ext, int(scounts[r])

    return _build_scatter(comm, "Scatterv", sendbuf, sdtype, segment,
                          recvbuf, roffset, rcount, rdtype, root)


def _build_scatter(comm, name, sendbuf, sdtype, segment,
                   recvbuf, roffset, rcount, rdtype, root):
    """Linear scatter; ``segment(r)`` gives rank r's (offset, count)."""

    def build(sched):
        tag = comm.next_coll_tag()
        if comm.rank == root:
            sends = []
            mine = None
            for r in range(comm.size):
                off, cnt = segment(r)
                seg = extract_contrib(sendbuf, off, cnt, sdtype)
                if r == root:
                    mine = seg
                else:
                    sends.append(Send(r, seg, tag))
            sched.round(*sends)
            sched.compute(lambda: land_contrib(recvbuf, roffset, rcount,
                                               rdtype, mine))
        else:
            box = Box()
            sched.round(Recv(root, tag, box))
            sched.compute(lambda: land_contrib(recvbuf, roffset, rcount,
                                               rdtype, box.contrib))

    return name, build
