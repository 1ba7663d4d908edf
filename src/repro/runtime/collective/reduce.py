"""``MPI_Reduce`` / ``MPI_Ireduce``.

Two algorithms:

* ``binomial`` — combine up a binomial tree rooted (virtually) at the
  root; requires a commutative operation;
* ``linear`` — the root receives every contribution and folds them in rank
  order (``a0 op a1 op … op a_{p-1}``, left-associated), which is the
  correct evaluation for non-commutative user operations.

The dispatcher falls back to ``linear`` automatically for non-commutative
operations.  ``build_to_root`` reduces a contribution into a result box at
the root; composed collectives (allreduce, reduce_scatter) reuse it.  The
tree folds in place — at the root of a dense ``Reduce`` in the result
window itself; the ownership rule is in :mod:`.common`.
"""

from __future__ import annotations

from repro.runtime.buffers import validate_buffer
from repro.runtime.collective.common import (algorithm_for, check_root,
                                             combine, extract_contrib, fold,
                                             land_contrib, note_algorithm,
                                             reduction_accum, scratch)
from repro.runtime import nbc
from repro.runtime.nbc import Box, Compute, Recv, Send


def reduce(comm, sendbuf, soffset, recvbuf, roffset, count, datatype, op,
           root) -> None:
    nbc.run(comm, *plan_reduce(comm, sendbuf, soffset, recvbuf, roffset, count,
                               datatype, op, root))


def ireduce(comm, sendbuf, soffset, recvbuf, roffset, count, datatype, op,
            root):
    return nbc.launch(comm, *plan_reduce(comm, sendbuf, soffset, recvbuf,
                                         roffset, count, datatype, op, root))


def _algorithm(op) -> str:
    # non-commutative ops force the linear chain
    return algorithm_for("reduce") if op.commute else "linear"


def folds_in_place(datatype, op) -> bool:
    """Does :func:`build_to_root` leave the root's result in the storage
    of the root's own contribution?  (The tree does, for dense data; the
    rank-ordered chain folds into the top rank's.)"""
    return _algorithm(op) == "binomial" and not datatype.base.is_object


def plan_reduce(comm, sendbuf, soffset, recvbuf, roffset, count, datatype, op,
                root):
    comm._check_alive()
    comm._require_intra("Reduce")
    check_root(comm, root)
    op.check_usable(datatype)
    at_root = comm.rank == root
    if at_root:
        validate_buffer(recvbuf, roffset, count, datatype)
    algorithm = _algorithm(op)
    note_algorithm(comm, "reduce", algorithm)

    def build(sched):
        tag = comm.next_coll_tag()
        if at_root and folds_in_place(datatype, op):
            mine, in_window = reduction_accum(sendbuf, soffset, recvbuf,
                                              roffset, count, datatype)
        else:
            mine = extract_contrib(sendbuf, soffset, count, datatype)
            in_window = False
        result = build_to_root(comm, sched, tag, mine, datatype, op, root)
        if at_root and not in_window:
            sched.compute(lambda: land_contrib(recvbuf, roffset, count,
                                               datatype, result.contrib))

    return "Reduce", build


def build_to_root(comm, sched, tag, mine, datatype, op, root):
    """Append rounds reducing every rank's contribution to ``root``.

    ``mine`` is storage the schedule owns (the ownership rule,
    :mod:`.common`): the binomial tree folds into it.  Returns the result
    :class:`Box` (meaningful at the root only; filled once the appended
    rounds have run).
    """
    algorithm = _algorithm(op)
    if algorithm == "binomial":
        return _binomial(comm, sched, tag, mine, datatype, op, root)
    if algorithm == "linear":
        return linear_to_root(comm, sched, tag, mine, datatype, op, root)
    raise ValueError(f"unknown reduce algorithm {algorithm!r}")


def linear_to_root(comm, sched, tag, mine, datatype, op, root):
    """The rank-ordered fold at ``root`` — safe for non-commutative ops,
    so composed collectives that need that order build it directly."""
    if comm.rank != root:
        sched.round(Send(root, mine, tag))
        return Box()
    boxes = {r: Box(mine) if r == root else Box()
             for r in range(comm.size)}
    sched.round(*[Recv(r, tag, boxes[r])
                  for r in range(comm.size) if r != root])
    result = Box()

    def fold_down():
        # left-associated fold in rank order, accumulated from the top
        # down into the top contribution: an arrival, private to this
        # rank, or this rank's own gather copy
        accum = boxes[comm.size - 1].contrib
        for r in range(comm.size - 2, -1, -1):
            accum = combine(op, boxes[r].contrib, accum, datatype)
        result.contrib = accum

    sched.compute(fold_down)
    return result


def _binomial(comm, sched, tag, mine, datatype, op, root):
    rank, size = comm.rank, comm.size
    vrank = (rank - root) % size
    accum = Box(mine)
    tmp = None
    mask = 1
    while mask < size:
        if vrank & mask:
            dst = (vrank - mask + root) % size
            sched.round(Send(dst, accum, tag, borrow=True))
            return accum
        src_v = vrank | mask
        if src_v < size:
            if tmp is None:
                tmp = scratch(mine)
            child = Box()
            sched.round(Recv((src_v + root) % size, tag, child, into=tmp),
                        Compute(fold, op, child, accum, datatype))
        mask <<= 1
    return accum
