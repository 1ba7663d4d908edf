"""``MPI_Allgather`` / ``MPI_Allgatherv`` / ``MPI_Iallgather``.

Default: gather the concatenated block at rank 0, broadcast it, and land
each rank's block locally.  The ring variant (``p - 1`` neighbour
exchanges, one block each) stays because it measures faster: at p = 2 at
every size, and at p = 4 at 4 MiB with all ranks on one CPU
(``BENCH_COLL.json``) or from 256 KiB up with a core per rank; making it
the large-message default is ROADMAP item 4(c)'s to decide.
"""

from __future__ import annotations

from repro.errors import MPIException, ERR_ARG
from repro.runtime.collective.common import (algorithm_for, concat,
                                             extract_contrib, land_contrib,
                                             note_algorithm, slice_contrib)
from repro.runtime.collective import bcast as _bcast
from repro.runtime.nbc import Box, Compute, Recv, Send


def plan_allgather(comm, sendbuf, soffset, scount, sdtype, recvbuf, roffset,
                   rcount, rdtype):
    comm._check_alive()
    comm._require_intra("Allgather")
    algorithm = algorithm_for("allgather")
    note_algorithm(comm, "allgather", algorithm)

    def build(sched):
        if algorithm == "ring":
            _ring(comm, sched, sendbuf, soffset, scount, sdtype,
                  recvbuf, roffset, rcount, rdtype)
            return
        if algorithm != "gather_bcast":
            raise ValueError(f"unknown allgather algorithm {algorithm!r}")
        stride = rcount * rdtype.extent_elems
        per = rcount if rdtype.base.is_object \
            else rcount * rdtype.size_elems

        def landing(r):
            return roffset + r * stride, rcount, r * per, (r + 1) * per

        _gather_bcast(comm, sched, sendbuf, soffset, scount, sdtype,
                      recvbuf, rdtype, landing)

    return "Allgather", build


def plan_allgatherv(comm, sendbuf, soffset, scount, sdtype, recvbuf, roffset,
                    rcounts, displs, rdtype):
    comm._check_alive()
    comm._require_intra("Allgatherv")
    if len(rcounts) != comm.size or len(displs) != comm.size:
        raise MPIException(ERR_ARG,
                           f"Allgatherv needs {comm.size} counts/displs")

    def build(sched):
        ext = rdtype.extent_elems
        per = rdtype.size_elems
        is_obj = rdtype.base.is_object
        starts = [0]
        for r in range(comm.size):
            n = int(rcounts[r])
            starts.append(starts[-1] + (n if is_obj else n * per))

        def landing(r):
            return (roffset + int(displs[r]) * ext, int(rcounts[r]),
                    starts[r], starts[r + 1])

        _gather_bcast(comm, sched, sendbuf, soffset, scount, sdtype,
                      recvbuf, rdtype, landing)

    return "Allgatherv", build


def _gather_bcast(comm, sched, sendbuf, soffset, scount, sdtype,
                  recvbuf, rdtype, landing) -> None:
    """Gather-to-0 + tree broadcast of the concatenated block.

    ``landing(r)`` gives (buffer offset, count, slice start, slice stop)
    for rank r's segment of the concatenated contribution.
    """
    tag_gather = comm.next_coll_tag()
    tag_bcast = comm.next_coll_tag()
    mine = extract_contrib(sendbuf, soffset, scount, sdtype)
    total = Box()
    if comm.size == 1:
        total.contrib = mine
    elif comm.rank == 0:
        boxes = [Box(mine)] + [Box() for _ in range(1, comm.size)]
        sched.round(*[Recv(r, tag_gather, boxes[r])
                      for r in range(1, comm.size)])

        def assemble():
            total.contrib = concat([b.contrib for b in boxes])

        sched.compute(assemble)
    else:
        sched.round(Send(0, mine, tag_gather))
    _bcast.build_tree(comm, sched, tag_bcast, total, root=0)

    def land_segments():
        for r in range(comm.size):
            off, cnt, start, stop = landing(r)
            land_contrib(recvbuf, off, cnt, rdtype,
                         slice_contrib(total.contrib, start, stop))

    sched.compute(land_segments)


def _ring(comm, sched, sendbuf, soffset, scount, sdtype,
          recvbuf, roffset, rcount, rdtype) -> None:
    """Ring allgather: pass segments around, one hop per round."""
    tag = comm.next_coll_tag()
    rank, size = comm.rank, comm.size
    stride = rcount * rdtype.extent_elems
    boxes = [Box(extract_contrib(sendbuf, soffset, scount, sdtype))]
    boxes += [Box() for _ in range(size - 1)]
    sched.compute(lambda: land_contrib(recvbuf, roffset + rank * stride,
                                       rcount, rdtype, boxes[0].contrib))
    right = (rank + 1) % size
    left = (rank - 1) % size
    for step in range(size - 1):
        src = (rank - step - 1) % size
        incoming = boxes[step + 1]

        def land(incoming=incoming, src=src):
            land_contrib(recvbuf, roffset + src * stride, rcount, rdtype,
                         incoming.contrib)

        sched.round(Send(right, boxes[step], tag),
                    Recv(left, tag, incoming),
                    Compute(land))
