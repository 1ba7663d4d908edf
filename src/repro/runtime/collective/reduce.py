"""``MPI_Reduce`` / ``MPI_Ireduce``.

Two algorithms:

* ``binomial`` — combine up a binomial tree rooted (virtually) at the
  root; requires a commutative operation;
* ``linear`` — the root receives every contribution and folds them in rank
  order (``a0 op a1 op … op a_{p-1}``, left-associated), which is the
  correct evaluation for non-commutative user operations.

The dispatcher falls back to ``linear`` automatically for non-commutative
operations.  ``build_to_root`` reduces a contribution into a result box at
the root; composed collectives (allreduce, reduce_scatter) reuse it.
"""

from __future__ import annotations

from repro.runtime.buffers import validate_buffer
from repro.runtime.collective.common import (algorithm_for, check_root,
                                             combine, extract_contrib,
                                             land_contrib, note_algorithm,
                                             writable)
from repro.runtime import nbc
from repro.runtime.nbc import Box, Compute, Recv, Send


def reduce(comm, sendbuf, soffset, recvbuf, roffset, count, datatype, op,
           root) -> None:
    ireduce(comm, sendbuf, soffset, recvbuf, roffset, count, datatype, op,
            root).wait()


def _algorithm(op) -> str:
    # non-commutative ops force the linear chain
    return algorithm_for("reduce") if op.commute else "linear"


def ireduce(comm, sendbuf, soffset, recvbuf, roffset, count, datatype, op,
            root):
    comm._check_alive()
    comm._require_intra("Reduce")
    check_root(comm, root)
    op.check_usable(datatype)
    if comm.rank == root:
        validate_buffer(recvbuf, roffset, count, datatype)
    note_algorithm(comm, "reduce", _algorithm(op))

    def build(sched):
        tag = comm.next_coll_tag()
        mine = extract_contrib(sendbuf, soffset, count, datatype)
        result = build_to_root(comm, sched, tag, mine, datatype, op, root)
        if comm.rank == root:
            sched.compute(lambda: land_contrib(recvbuf, roffset, count,
                                               datatype, result.contrib))

    return nbc.launch(comm, "Reduce", build)


def build_to_root(comm, sched, tag, mine, datatype, op, root):
    """Append rounds reducing every rank's contribution to ``root``.

    Returns the result :class:`Box` (meaningful at the root only; filled
    once the appended rounds have run).
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

    def fold():
        # left-associated fold in rank order: accumulate from the top down
        accum = writable(boxes[comm.size - 1].contrib)
        for r in range(comm.size - 2, -1, -1):
            accum = combine(op, boxes[r].contrib, accum, datatype)
        result.contrib = accum

    sched.compute(fold)
    return result


def _binomial(comm, sched, tag, mine, datatype, op, root):
    rank, size = comm.rank, comm.size
    vrank = (rank - root) % size
    accum = Box(writable(mine))
    mask = 1
    while mask < size:
        if vrank & mask:
            dst = (vrank - mask + root) % size
            sched.round(Send(dst, accum, tag))
            return accum
        src_v = vrank | mask
        if src_v < size:
            child = Box()

            def fold(child=child):
                accum.contrib = combine(op, child.contrib, accum.contrib,
                                        datatype)

            sched.round(Recv((src_v + root) % size, tag, child),
                        Compute(fold))
        mask <<= 1
    return accum
