"""``MPI_Bcast`` / ``MPI_Ibcast``.

Binomial tree by default (``ceil(log2 p)`` communication rounds on the
critical path); the linear variant (root sends ``p - 1`` messages) exists
for the ablation benchmark.  Large messages switch (size-aware, see
:func:`~repro.runtime.collective.common.algorithm_for`) to a *segmented
pipeline*: ranks form a chain rooted at ``root`` and the payload moves in
``SEGMENT_BYTES`` slices, each rank forwarding segment ``s-1`` downstream
while receiving segment ``s`` — bandwidth-optimal for big payloads, and
every segment rides the wire fast path eagerly.  The message is gathered
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
                                             note_algorithm, segment_bounds)
from repro.runtime import nbc
from repro.runtime.nbc import Box, Compute, Recv, Send


def bcast(comm, buf, offset, count, datatype, root) -> None:
    nbc.run(comm, *plan_bcast(comm, buf, offset, count, datatype, root))


def ibcast(comm, buf, offset, count, datatype, root):
    return nbc.launch(comm, *plan_bcast(comm, buf, offset, count, datatype,
                                        root))


def plan_bcast(comm, buf, offset, count, datatype, root):
    comm._check_alive()
    comm._require_intra("Bcast")
    check_root(comm, root)
    validate_buffer(buf, offset, count, datatype)
    nbytes = None if datatype.base.is_object \
        else count * datatype.size_bytes()
    algorithm = algorithm_for("bcast", nbytes)
    if algorithm == "segmented" and datatype.base.is_object:
        algorithm = "binomial"   # object blobs are not sliceable
    note_algorithm(comm, "bcast", algorithm, nbytes)

    def build(sched):
        if comm.size == 1:
            return
        tag = comm.next_coll_tag()
        if algorithm == "segmented":
            _segmented(comm, sched, tag, buf, offset, count, datatype,
                       root)
            return
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
    if algorithm == "segmented":
        # box movers ship one opaque contribution; segmentation only
        # applies at the Bcast entry point where the buffer is visible
        algorithm = "binomial"
    if comm.size == 1:
        return
    if algorithm == "binomial":
        _binomial(comm, sched, tag, box, root, into)
    elif algorithm == "linear":
        _linear(comm, sched, tag, box, root, into)
    else:
        raise ValueError(f"unknown bcast algorithm {algorithm!r}")


def _segmented(comm, sched, tag, buf, offset, count, datatype,
               root) -> None:
    """Chain pipeline: segment ``s`` arrives while ``s-1`` forwards.

    Virtual rank 0 (= ``root``) streams segments down the chain; rank
    ``v`` receives segment ``s`` from ``v-1`` in round ``s`` while
    forwarding segment ``s-1`` to ``v+1``, landing each segment as it
    arrives (no concatenation staging).  Steady-state all links are busy
    with consecutive segments — bandwidth scales with the slowest link
    rather than ``log p`` full-message hops.
    """
    rank, size = comm.rank, comm.size
    vrank = (rank - root) % size
    nxt = (rank + 1) % size if vrank + 1 < size else None
    prv = (rank - 1) % size
    bounds = segment_bounds(count * datatype.size_elems,
                            datatype.base.np_dtype.itemsize)
    nseg = len(bounds) - 1
    if vrank == 0:
        _, dense = extract_contrib(buf, offset, count, datatype)
        for s in range(nseg):
            sched.round(Send(nxt, ("dense",
                                   dense[bounds[s]:bounds[s + 1]]), tag))
        return
    boxes = [Box() for _ in range(nseg)]
    for s in range(nseg):
        def land(s=s):
            land_contrib(buf, offset, count, datatype, boxes[s].contrib,
                         bounds[s])
        forward = Send(nxt, boxes[s - 1], tag) if nxt is not None and s \
            else None
        sched.round(Recv(prv, tag, boxes[s]), forward, Compute(land))
    if nxt is not None:
        sched.round(Send(nxt, boxes[nseg - 1], tag))


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
