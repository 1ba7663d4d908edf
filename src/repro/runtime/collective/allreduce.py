"""``MPI_Allreduce`` / ``MPI_Iallreduce``.

Default algorithm is recursive doubling for commutative operations on
power-of-two communicators (``log2 p`` exchange rounds of the whole
vector).  Everything else — and every large payload (size-aware): it is
the fastest variant measured at every size from 64 KiB up, see
``BENCH_COLL.json`` — is reduce-to-0 + broadcast, two composed
sub-schedules with their own tags.  The *ring* (reduce-scatter +
allgather, ``2(p-1)`` rounds, each rank moving ``2(p-1)/p`` of the
vector instead of whole copies) is there for the ablation benchmark and
for a box with a core per rank to re-measure.

A dense commutative reduction accumulates in place — in the caller's
result window when it can (:func:`~.common.reduction_accum`) — and every
arriving partial lands in the one scratch array, or the window chunk,
its ``Recv`` names; objects and rank-ordered (non-commutative) folds
travel in boxes.  The ownership rule is in :mod:`.common`.
"""

from __future__ import annotations

import numpy as np

from repro.runtime.buffers import validate_buffer
from repro.runtime.collective.common import (ALGORITHM_CHOICES, algorithm_for,
                                             extract_contrib, fold,
                                             land_contrib, note_algorithm,
                                             reduction_accum, scratch)
from repro.runtime.collective import bcast as _bcast
from repro.runtime.collective import reduce as _reduce
from repro.runtime import nbc
from repro.runtime.nbc import Box, Compute, Recv, Send


def allreduce(comm, sendbuf, soffset, recvbuf, roffset, count, datatype,
              op) -> None:
    nbc.run(comm, *plan_allreduce(comm, sendbuf, soffset, recvbuf, roffset,
                                  count, datatype, op))


def iallreduce(comm, sendbuf, soffset, recvbuf, roffset, count, datatype,
               op):
    return nbc.launch(comm, *plan_allreduce(comm, sendbuf, soffset, recvbuf,
                                            roffset, count, datatype, op))


def plan_allreduce(comm, sendbuf, soffset, recvbuf, roffset, count, datatype,
                   op):
    comm._check_alive()
    comm._require_intra("Allreduce")
    op.check_usable(datatype)
    validate_buffer(recvbuf, roffset, count, datatype)
    is_object = datatype.base.is_object
    nbytes = None if is_object else count * datatype.size_bytes()
    algorithm = algorithm_for("allreduce", nbytes)
    note_algorithm(comm, "allreduce", algorithm, nbytes)
    if algorithm not in ALGORITHM_CHOICES["allreduce"]:
        raise ValueError(f"unknown allreduce algorithm {algorithm!r}")
    pow2 = comm.size & (comm.size - 1) == 0
    # the ring needs commutativity (chunk partials fold in ring order,
    # not rank order), at least one element per rank to scatter, and a
    # scalar base: pair types (MINLOC/MAXLOC) reduce over interleaved
    # (value, index) units that the per-element chunk bounds would split
    if algorithm == "ring" and not (
            op.commute and not is_object and not datatype.is_pair
            and count * datatype.size_elems >= comm.size > 1):
        algorithm = "reduce_bcast"
    if algorithm == "recursive_doubling" and not (op.commute and pow2):
        algorithm = "reduce_bcast"

    # does the result end up in the storage of this rank's contribution?
    in_place = _reduce.folds_in_place(datatype, op) \
        if algorithm == "reduce_bcast" else not is_object

    def build(sched):
        if in_place:
            mine, in_window = reduction_accum(sendbuf, soffset, recvbuf,
                                              roffset, count, datatype)
        else:
            mine = extract_contrib(sendbuf, soffset, count, datatype)
            in_window = False
        accum = Box(mine)
        tag = comm.next_coll_tag()
        if algorithm == "ring":
            _ring(comm, sched, tag, mine[1], datatype, op)
        elif algorithm == "recursive_doubling":
            _recursive_doubling(comm, sched, tag, accum, datatype, op)
        else:
            # reduce + bcast (large payloads, every fallback, the explicit
            # ablation variant); a dense result comes back into the
            # accumulator's storage
            accum = _reduce.build_to_root(comm, sched, tag, mine, datatype,
                                          op, root=0)
            _bcast.build_tree(comm, sched, comm.next_coll_tag(), accum,
                              root=0, into=mine[1] if in_place else None)
        if not in_window:
            sched.compute(lambda: land_contrib(recvbuf, roffset, count,
                                               datatype, accum.contrib))

    return "Allreduce", build


def _chunk_bounds(n: int, size: int) -> list[int]:
    return [(c * n) // size for c in range(size + 1)]


def _ring(comm, sched, tag, data, datatype, op) -> None:
    """Ring allreduce of the accumulator ``data``: reduce-scatter pass,
    then allgather pass.

    The vector splits into ``p`` chunks.  Reduce-scatter round ``t``:
    send the partial for chunk ``(rank - t) % p`` to the next rank,
    receive the partial for chunk ``(rank - t - 1) % p`` from the
    previous rank into the scratch chunk and fold it into the
    accumulator's own.  After ``p-1`` rounds, rank ``r`` owns the fully
    reduced chunk ``(r + 1) % p``; the allgather pass circulates
    completed chunks the same way, each landing straight in its place.
    Each rank moves ``2(p-1)/p`` of the vector total.

    Every round sends one chunk and writes another, and a chunk is
    written again only in a later round than the one that sent it — over
    by then, so flushed (the ownership rule, :mod:`.common`).
    """
    rank, size = comm.rank, comm.size
    bounds = _chunk_bounds(len(data), size)
    nxt, prv = (rank + 1) % size, (rank - 1) % size

    def chunk(c):
        c %= size
        return data[bounds[c]:bounds[c + 1]]

    tmp = np.empty(-(-len(data) // size), dtype=data.dtype)
    for t in range(size - 1):
        mine, theirs = chunk(rank - t - 1), Box()
        sched.round(Send(nxt, ("dense", chunk(rank - t)), tag, borrow=True),
                    Recv(prv, tag, theirs, into=tmp[:len(mine)]),
                    Compute(fold, op, theirs, Box(("dense", mine)),
                            datatype))
    for t in range(size - 1):
        sched.round(Send(nxt, ("dense", chunk(rank + 1 - t)), tag,
                         borrow=True),
                    Recv(prv, tag, into=chunk(rank - t)))


def _recursive_doubling(comm, sched, tag, accum, datatype, op) -> None:
    """``log2 p`` exchanges of the whole accumulator (commutative op,
    power-of-two group): every rank folds its peer's partial into its
    own, so all end with the full reduction."""
    rank, size = comm.rank, comm.size
    tmp = scratch(accum.contrib)
    mask = 1
    while mask < size:
        peer, theirs = rank ^ mask, Box()
        sched.round(Send(peer, accum, tag, borrow=True),
                    Recv(peer, tag, theirs, into=tmp),
                    Compute(fold, op, theirs, accum, datatype))
        mask <<= 1
