"""``MPI_Allreduce`` / ``MPI_Iallreduce``.

Default algorithm is recursive doubling for commutative operations on
power-of-two communicators (``log2 p`` exchange rounds); large payloads
switch (size-aware) to a *ring* — reduce-scatter around the ring then
allgather, moving ``2(p-1)/p`` of the vector per rank instead of
``log2(p)`` full copies, the bandwidth-optimal choice.  Everything else
falls back to reduce-to-0 + broadcast (two composed sub-schedules with
their own tags), which the ablation benchmark also exercises explicitly.
"""

from __future__ import annotations

from repro.runtime.buffers import validate_buffer
from repro.runtime.collective.common import (algorithm_for, combine,
                                             extract_contrib, land_contrib,
                                             note_algorithm, writable)
from repro.runtime.collective import bcast as _bcast
from repro.runtime.collective import reduce as _reduce
from repro.runtime import nbc
from repro.runtime.nbc import Box, Compute, Recv, Send


def allreduce(comm, sendbuf, soffset, recvbuf, roffset, count, datatype,
              op) -> None:
    iallreduce(comm, sendbuf, soffset, recvbuf, roffset, count, datatype,
               op).wait()


def iallreduce(comm, sendbuf, soffset, recvbuf, roffset, count, datatype,
               op):
    comm._check_alive()
    comm._require_intra("Allreduce")
    op.check_usable(datatype)
    validate_buffer(recvbuf, roffset, count, datatype)
    nbytes = None if datatype.base.is_object \
        else count * datatype.size_bytes()
    algorithm = algorithm_for("allreduce", nbytes)
    note_algorithm(comm, "allreduce", algorithm, nbytes)
    pow2 = comm.size & (comm.size - 1) == 0
    # ring needs commutativity (chunk partials fold in ring order, not
    # rank order), at least one element per rank to scatter, and a
    # scalar base: pair types (MINLOC/MAXLOC) reduce over interleaved
    # (value, index) units that the per-element chunk bounds would split
    ring_ok = op.commute and not datatype.base.is_object \
        and not datatype.is_pair \
        and count * datatype.size_elems >= comm.size and comm.size > 1

    def build(sched):
        mine = extract_contrib(sendbuf, soffset, count, datatype)
        if algorithm == "ring" and ring_ok:
            tag = comm.next_coll_tag()
            result = _ring(comm, sched, tag, mine, datatype, op)
        elif algorithm == "recursive_doubling" and op.commute and pow2:
            tag = comm.next_coll_tag()
            result = _recursive_doubling(comm, sched, tag, mine, datatype,
                                         op)
        elif algorithm in ("recursive_doubling", "reduce_bcast", "ring"):
            # reduce + bcast fallback (also the explicit ablation variant)
            tag_reduce = comm.next_coll_tag()
            tag_bcast = comm.next_coll_tag()
            result = _reduce.build_to_root(comm, sched, tag_reduce, mine,
                                           datatype, op, root=0)
            _bcast.build_tree(comm, sched, tag_bcast, result, root=0)
        else:
            raise ValueError(f"unknown allreduce algorithm {algorithm!r}")
        sched.compute(lambda: land_contrib(recvbuf, roffset, count,
                                           datatype, result.contrib))

    return nbc.launch(comm, "Allreduce", build)


def _ring(comm, sched, tag, mine, datatype, op):
    """Ring allreduce: reduce-scatter pass, then allgather pass.

    The vector splits into ``p`` chunks.  Reduce-scatter round ``t``:
    send the partial for chunk ``(rank - t) % p`` to the next rank,
    receive the partial for chunk ``(rank - t - 1) % p`` from the
    previous rank and fold the local chunk in (fresh storage — arrived
    and sent arrays are immutable, see :func:`combine`).  After ``p-1``
    rounds, rank ``r`` owns the fully reduced chunk ``(r + 1) % p``; the
    allgather pass circulates completed chunks the same way.  Each rank
    moves ``2(p-1)/p`` of the vector total, every transfer pipelined
    through the wire fast path.

    Mutation safety: ``data`` is this rank's private accumulator.  The
    only slice of it ever *sent* is the round-0 chunk, which is consumed
    by the next rank's round-0 fold — strictly before this rank can
    reach the allgather stores that overwrite ``data`` (those require
    phase 1 to complete, which transitively orders after every
    neighbour's early folds).
    """
    rank, size = comm.rank, comm.size
    _, data = writable(mine)           # dense private storage
    n = int(data.shape[0])
    bounds = [(c * n) // size for c in range(size + 1)]
    nxt, prv = (rank + 1) % size, (rank - 1) % size

    # phase 1: reduce-scatter
    carry = Box(("dense", data[bounds[rank]:bounds[rank + 1]]))
    for t in range(size - 1):
        recv_c = (rank - t - 1) % size
        theirs, folded = Box(), Box()

        def fold(theirs=theirs, folded=folded, c=recv_c):
            lo, hi = bounds[c], bounds[c + 1]
            folded.contrib = combine(op, theirs.contrib,
                                     ("dense", data[lo:hi]), datatype)

        sched.round(Send(nxt, carry, tag), Recv(prv, tag, theirs),
                    Compute(fold))
        carry = folded
    done = carry            # fully reduced chunk (rank + 1) % size

    # phase 2: allgather
    carry = done
    for t in range(size - 1):
        recv_c = (rank - t) % size
        theirs = Box()

        def store(theirs=theirs, c=recv_c):
            lo, hi = bounds[c], bounds[c + 1]
            data[lo:hi] = theirs.contrib[1]

        sched.round(Send(nxt, carry, tag), Recv(prv, tag, theirs),
                    Compute(store))
        carry = theirs

    result = Box()

    def finish(result=result):
        oc = (rank + 1) % size
        data[bounds[oc]:bounds[oc + 1]] = done.contrib[1]
        result.contrib = ("dense", data)

    sched.compute(finish)
    return result


def _recursive_doubling(comm, sched, tag, mine, datatype, op):
    rank, size = comm.rank, comm.size
    accum = Box(writable(mine))
    mask = 1
    while mask < size:
        peer = rank ^ mask
        theirs = Box()

        def fold(theirs=theirs, peer=peer):
            # keep rank-order convention: lower rank's data is `invec`;
            # combine always writes fresh storage, so the peer's
            # contribution can be passed as `inout` directly
            if peer < rank:
                accum.contrib = combine(op, theirs.contrib, accum.contrib,
                                        datatype)
            else:
                accum.contrib = combine(op, accum.contrib, theirs.contrib,
                                        datatype)

        sched.round(Send(peer, accum, tag), Recv(peer, tag, theirs),
                    Compute(fold))
        mask <<= 1
    return accum
