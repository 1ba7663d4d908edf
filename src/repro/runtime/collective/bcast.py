"""``MPI_Bcast`` / ``MPI_Ibcast``.

Binomial tree at every size (``ceil(log2 p)`` communication rounds on
the critical path, ``p - 1`` whole-message sends per job); the linear
variant (root sends ``p - 1`` messages) is the ablation baseline.  No
large-message switch: a chain pipeline of 64 KiB segments measured the
slowest variant at every size it would have been selected for, so a
large message is one wire message per hop.  The message is gathered
into dense form once at the root and forwarded dense, so derived-datatype
packing costs are paid exactly once per endpoint.

``build_tree`` moves a :class:`~repro.runtime.nbc.Box` from ``root`` to
every rank; composed collectives (reduce+bcast allreduce) reuse it with
their own tag and boxes.
"""

from __future__ import annotations

from repro.runtime.buffers import validate_buffer
from repro.runtime.collective.common import (algorithm_for, check_root,
                                             extract_contrib, land_contrib,
                                             note_algorithm)
from repro.runtime.nbc import Box, Recv, Send


def plan_bcast(comm, buf, offset, count, datatype, root):
    comm._check_alive()
    comm._require_intra("Bcast")
    check_root(comm, root)
    validate_buffer(buf, offset, count, datatype)
    nbytes = None if datatype.base.is_object \
        else count * datatype.size_bytes()
    note_algorithm(comm, "bcast", algorithm_for("bcast"), nbytes)

    def build(sched):
        if comm.size == 1:
            return
        tag = comm.next_coll_tag()
        at_root = comm.rank == root
        box = Box(extract_contrib(buf, offset, count, datatype)) \
            if at_root else Box()
        build_tree(comm, sched, tag, box, root)
        if not at_root:
            sched.compute(
                lambda: land_contrib(buf, offset, count, datatype,
                                     box.contrib))

    return "Bcast", build


def build_tree(comm, sched, tag, box, root, into=None) -> None:
    """Append rounds that move ``box`` from ``root`` to every rank.

    With ``into`` — on every rank the accumulator a dense result belongs
    in, and at the root the storage ``box`` already holds — a receiving
    rank lands the payload there, and what is forwarded is that storage,
    borrowed (the ownership rule, :mod:`.common`).
    """
    algorithm = algorithm_for("bcast")
    if comm.size == 1:
        return
    if algorithm == "binomial":
        _binomial(comm, sched, tag, box, root, into)
    elif algorithm == "linear":
        _linear(comm, sched, tag, box, root, into)
    else:
        raise ValueError(f"unknown bcast algorithm {algorithm!r}")


def _binomial(comm, sched, tag, box, root, into=None) -> None:
    rank, size = comm.rank, comm.size
    vrank = (rank - root) % size

    mask = 1
    if vrank == 0:
        while mask < size:
            mask <<= 1
    else:
        while not (vrank & mask):
            mask <<= 1
        src = (vrank - mask + root) % size
        sched.round(Recv(src, tag, box, into))
    # here mask is vrank's lowest set bit (or above size for the root), so
    # vrank + mask>>1 ... vrank + 1 address exactly this node's subtree
    # children; forwarding sends resolve `box` once the receive landed
    mask >>= 1
    sends = []
    while mask > 0:
        if vrank + mask < size:
            sends.append(Send((vrank + mask + root) % size, box, tag,
                              borrow=into is not None))
        mask >>= 1
    sched.round(*sends)


def _linear(comm, sched, tag, box, root, into=None) -> None:
    rank, size = comm.rank, comm.size
    if rank == root:
        sched.round(*[Send(r, box, tag, borrow=into is not None)
                      for r in range(size) if r != root])
    else:
        sched.round(Recv(root, tag, box, into))
