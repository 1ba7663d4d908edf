"""``MPI_Scan``: inclusive prefix reduction along the rank chain.

The linear chain evaluates ``a0 op a1 op … op a_r`` left-associated at each
rank, which is correct for non-commutative operations too.
"""

from __future__ import annotations

from repro.runtime.buffers import validate_buffer
from repro.runtime.collective.common import (extract_contrib, fold,
                                             land_contrib)
from repro.runtime.nbc import Box, Compute, Recv, Send


def plan_scan(comm, sendbuf, soffset, recvbuf, roffset, count, datatype, op):
    comm._check_alive()
    comm._require_intra("Scan")
    op.check_usable(datatype)
    validate_buffer(recvbuf, roffset, count, datatype)

    def build(sched):
        tag = comm.next_coll_tag()
        rank, size = comm.rank, comm.size
        # the gather copy is the accumulator (the ownership rule,
        # :mod:`.common`); it is sent on only once it is final
        accum = Box(extract_contrib(sendbuf, soffset, count, datatype))
        if rank > 0:
            prefix = Box()
            sched.round(Recv(rank - 1, tag, prefix),
                        Compute(fold, op, prefix, accum, datatype))
        if rank + 1 < size:
            sched.round(Send(rank + 1, accum, tag))
        sched.compute(lambda: land_contrib(recvbuf, roffset, count,
                                           datatype, accum.contrib))

    return "Scan", build
