"""``MPI_Reduce_scatter``: reduce a vector, scatter segments by count."""

from __future__ import annotations

from repro.errors import MPIException, ERR_ARG
from repro.runtime.collective import reduce as _reduce
from repro.runtime.collective.common import (extract_contrib, land_contrib,
                                             slice_contrib)
from repro.runtime.nbc import Box, Recv, Send


def plan_reduce_scatter(comm, sendbuf, soffset, recvbuf, roffset, recvcounts,
                        datatype, op):
    comm._check_alive()
    comm._require_intra("Reduce_scatter")
    if len(recvcounts) != comm.size:
        raise MPIException(ERR_ARG,
                           f"Reduce_scatter needs {comm.size} recvcounts, "
                           f"got {len(recvcounts)}")
    total = int(sum(int(c) for c in recvcounts))
    op.check_usable(datatype)

    def build(sched):
        tag_reduce = comm.next_coll_tag()
        tag_scatter = comm.next_coll_tag()
        mine = extract_contrib(sendbuf, soffset, total, datatype)
        # reduce the whole vector at rank 0 in rank order (the linear
        # algorithm is safe for non-commutative ops) ...
        result = _reduce.linear_to_root(comm, sched, tag_reduce, mine,
                                        datatype, op, root=0)
        # ... then scatter the per-rank segments
        per = datatype.size_elems
        n_mine = int(recvcounts[comm.rank])
        if comm.rank == 0:
            seg_boxes = [Box() for _ in range(comm.size)]

            def slice_segments():
                pos = 0
                for r in range(comm.size):
                    n = int(recvcounts[r])
                    width = n if result.contrib[0] == "obj" else n * per
                    seg_boxes[r].contrib = slice_contrib(result.contrib,
                                                         pos, pos + width)
                    pos += width

            sched.compute(slice_segments)
            sched.round(*[Send(r, seg_boxes[r], tag_scatter)
                          for r in range(1, comm.size)])
            sched.compute(lambda: land_contrib(recvbuf, roffset, n_mine,
                                               datatype,
                                               seg_boxes[0].contrib))
        else:
            box = Box()
            sched.round(Recv(0, tag_scatter, box))
            sched.compute(lambda: land_contrib(recvbuf, roffset, n_mine,
                                               datatype, box.contrib))

    return "Reduce_scatter", build
