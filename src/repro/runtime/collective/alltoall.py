"""``MPI_Alltoall`` / ``MPI_Alltoallv`` / ``MPI_Ialltoall`` (pairwise).

Round ``i`` sends this rank's segment for ``(rank + i) % p`` and receives
from ``(rank - i) % p``; no send waits for its peer, so every round is
deadlock-free.  Between contiguous windows a block is sent as a view of
the send window and lands straight in its place in the receive window.
"""

from __future__ import annotations

from repro.errors import MPIException, ERR_ARG
from repro.runtime.buffers import validate_buffer
from repro.runtime.collective.common import (extract_contrib, land_contrib)
from repro.runtime import nbc
from repro.runtime.nbc import Box, Compute, Recv, Send


def alltoall(comm, sendbuf, soffset, scount, sdtype,
             recvbuf, roffset, rcount, rdtype) -> None:
    nbc.run(comm, *plan_alltoall(comm, sendbuf, soffset, scount, sdtype,
                                 recvbuf, roffset, rcount, rdtype))


def ialltoall(comm, sendbuf, soffset, scount, sdtype,
              recvbuf, roffset, rcount, rdtype):
    return nbc.launch(comm, *plan_alltoall(comm, sendbuf, soffset, scount,
                                           sdtype, recvbuf, roffset, rcount,
                                           rdtype))


def plan_alltoall(comm, sendbuf, soffset, scount, sdtype, recvbuf, roffset,
                  rcount, rdtype):
    comm._check_alive()
    comm._require_intra("Alltoall")
    sstride = scount * sdtype.extent_elems
    rstride = rcount * rdtype.extent_elems

    def segment(dst):
        return soffset + dst * sstride, scount

    def landing(src):
        return roffset + src * rstride, rcount

    return "Alltoall", _pairwise(comm, sendbuf, sdtype, segment, recvbuf,
                                 rdtype, landing)


def alltoallv(comm, sendbuf, soffset, scounts, sdispls, sdtype,
              recvbuf, roffset, rcounts, rdispls, rdtype) -> None:
    nbc.run(comm, *plan_alltoallv(comm, sendbuf, soffset, scounts, sdispls,
                                  sdtype, recvbuf, roffset, rcounts, rdispls,
                                  rdtype))


def ialltoallv(comm, sendbuf, soffset, scounts, sdispls, sdtype,
               recvbuf, roffset, rcounts, rdispls, rdtype):
    return nbc.launch(comm, *plan_alltoallv(comm, sendbuf, soffset, scounts,
                                            sdispls, sdtype, recvbuf, roffset,
                                            rcounts, rdispls, rdtype))


def plan_alltoallv(comm, sendbuf, soffset, scounts, sdispls, sdtype, recvbuf,
                   roffset, rcounts, rdispls, rdtype):
    comm._check_alive()
    comm._require_intra("Alltoallv")
    size = comm.size
    for name, seq in (("scounts", scounts), ("sdispls", sdispls),
                      ("rcounts", rcounts), ("rdispls", rdispls)):
        if len(seq) != size:
            raise MPIException(ERR_ARG,
                               f"Alltoallv {name} must have {size} entries, "
                               f"got {len(seq)}")
    sext = sdtype.extent_elems
    rext = rdtype.extent_elems

    def segment(dst):
        return soffset + int(sdispls[dst]) * sext, int(scounts[dst])

    def landing(src):
        return roffset + int(rdispls[src]) * rext, int(rcounts[src])

    return "Alltoallv", _pairwise(comm, sendbuf, sdtype, segment, recvbuf,
                                  rdtype, landing)


def _contiguous(buf, datatype) -> bool:
    """Are ``datatype`` windows of ``buf`` plain slices of it?"""
    return not datatype.base.is_object and datatype.layout().contiguous \
        and getattr(buf, "flags", None) is not None \
        and buf.flags.c_contiguous


def _fits(buf, offset, count, datatype) -> bool:
    """Is the landing window valid?  One that is not takes the staged
    path, whose landing raises the error *after* this rank's blocks have
    gone out: its peers finish."""
    try:
        validate_buffer(buf, offset, count, datatype)
    except MPIException:
        return False
    return True


def _pairwise(comm, sendbuf, sdtype, segment, recvbuf, rdtype, landing):
    """Builder of the pairwise exchange; ``segment``/``landing`` map
    peers to buffers."""
    # between contiguous windows nothing is staged: a block is a view of
    # the send window (borrowed) and lands in its receive window
    direct = _contiguous(sendbuf, sdtype) and _contiguous(recvbuf, rdtype) \
        and recvbuf.flags.writeable

    def build(sched):
        tag = comm.next_coll_tag()
        rank, size = comm.rank, comm.size
        for step in range(size):
            dst = (rank + step) % size
            src = (rank - step) % size
            soff, scnt = segment(dst)
            roff, rcnt = landing(src)
            if direct and dst != rank and _fits(recvbuf, roff, rcnt, rdtype):
                nsend = scnt * validate_buffer(sendbuf, soff, scnt,
                                               sdtype).size_elems
                nrecv = rcnt * rdtype.size_elems
                sched.round(
                    Send(dst, ("dense", sendbuf[soff:soff + nsend]), tag,
                         borrow=True),
                    Recv(src, tag, into=recvbuf[roff:roff + nrecv]))
                continue
            seg = extract_contrib(sendbuf, soff, scnt, sdtype)
            if dst == rank:
                sched.compute(land_contrib, recvbuf, roff, rcnt, rdtype,
                              seg)
                continue
            box = Box()
            sched.round(Send(dst, seg, tag), Recv(src, tag, box),
                        Compute(_land, recvbuf, roff, rcnt, rdtype, box))

    return build


def _land(recvbuf, roff, rcnt, rdtype, box) -> None:
    land_contrib(recvbuf, roff, rcnt, rdtype, box.contrib)
