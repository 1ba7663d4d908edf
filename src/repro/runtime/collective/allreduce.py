"""``MPI_Allreduce`` / ``MPI_Iallreduce``.

Default algorithm is recursive doubling for commutative operations on
power-of-two communicators (``log2 p`` exchange rounds of the whole
vector).  Everything else — and every large payload (size-aware): it is
the fastest variant measured at every size from 256 KiB up, see
``BENCH_COLL.json`` — is reduce-to-0 + broadcast, two composed
sub-schedules with their own tags.  Each wins measured rows, and the
size cutoff (:data:`~.common.LARGE_MESSAGE_BYTES`) chooses between them.

A dense commutative reduction accumulates in place — in the caller's
result window when it can (:func:`~.common.reduction_accum`) — and every
arriving partial lands in the one scratch array its ``Recv`` names;
objects and rank-ordered (non-commutative) folds travel in boxes.  The ownership rule is in :mod:`.common`.
"""

from __future__ import annotations

from repro.runtime.buffers import validate_buffer
from repro.runtime.collective.common import (ALGORITHM_CHOICES, algorithm_for,
                                             extract_contrib, fold,
                                             land_contrib, note_algorithm,
                                             reduction_accum, scratch)
from repro.runtime.collective import bcast as _bcast
from repro.runtime.collective import reduce as _reduce
from repro.runtime.nbc import Box, Compute, Recv, Send


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
        if algorithm == "recursive_doubling":
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
