"""Shared machinery for collective algorithms.

A *contribution* is one rank's dense message: ``("dense", ndarray)`` for
primitive data or ``("obj", list)`` for ``MPI.OBJECT`` data.  The helpers
here move contributions between ranks over the collective context and land
them into user buffers.

Algorithm selection: every collective has a default algorithm (see
:data:`DEFAULT_ALGORITHMS`) that ablation benchmarks override through the
:func:`algorithm_overrides` context manager.  Overrides are thread-local —
ranks are threads here, so one rank's ablation run can never bleed
algorithm selection into a concurrently running test.

Ownership — the one rule of the reduction datapath: a fold writes only
storage *this rank's schedule owns*.  That is the accumulator
(:func:`reduction_accum`: the caller's result window itself when it is
contiguous and writable, else one dense gather copy landed once at the
end), a scratch array a ``Recv(..., into=...)`` landed in, or a
contribution that arrived in a box — an arrival is private to its
receiver, because whoever keeps a borrowed payload copies it
(:meth:`~repro.runtime.envelope.Envelope.claim`).  Two duties follow.  A
``Send`` of storage that is written again later — an accumulator, a view
of a user window — says ``borrow=True``: it travels as a zero-copy
point-to-point send does, the round is not over until its bytes have
left, and on the in-process transport, which hands arrays over by
reference, the receiving side copies it if it keeps it.  And a
contribution sent *without* ``borrow`` is never written again by its
sender, nor by a receiver that may be one of several (``Bcast`` fans one
array out: its receivers only read).  ``MPI.OBJECT`` lists, and the
rank-ordered folds non-commutative operations need, travel in boxes and
fold through :func:`combine` under the same rule.

Fault containment: everything here runs inside a schedule (see
:mod:`repro.runtime.nbc.progress`) — a user reduction op (or decode)
that raises fails *that rank's* collective with the original exception
preserved (raised from the blocking call, through ``Wait`` from the
nonblocking one), and a job abort or a member's death ends every round's
wait, so no collective can strand a peer.
"""

from __future__ import annotations

import contextlib
import threading

import numpy as np

from repro.errors import MPIException, ERR_ARG, ERR_ROOT
from repro.datatypes.object_serial import (deserialize_objects,
                                           serialize_objects)
from repro.obs.trace import TRACE
from repro.runtime.buffers import (extract_send_payload, land_dense,
                                   validate_buffer)

# --- algorithm selection ------------------------------------------------------

#: per-collective algorithm choices; first entry is the default
ALGORITHM_CHOICES = {
    "bcast": ("binomial", "linear", "segmented"),
    "reduce": ("binomial", "linear"),
    "allreduce": ("recursive_doubling", "reduce_bcast", "ring"),
    "barrier": ("dissemination", "linear"),
    "allgather": ("gather_bcast", "ring"),
}

DEFAULT_ALGORITHMS = {k: v[0] for k, v in ALGORITHM_CHOICES.items()}

#: size-aware selection: at/above this dense payload size, collectives
#: with a large-message variant switch to it (latency-optimal trees ->
#: bandwidth-optimal pipelines/rings, segmented through the wire fast
#: path).  Every rank computes the size from (count, datatype), which
#: MPI requires to agree, so the selection agrees without negotiation.
LARGE_MESSAGE_BYTES = 256 * 1024

#: dense-element segment size for pipelined algorithms; kept below the
#: wire eager limit so segments stream without rendezvous handshakes
SEGMENT_BYTES = 64 * 1024

#: (allreduce: what BENCH_COLL.json measures fastest from 64 KiB up — 6
#: whole-vector messages on 4 ranks against the ring's 24 chunks — on
#: both backends, all ranks on one CPU; ROADMAP item 4(c) re-decides on a
#: core per rank)
LARGE_ALGORITHMS = {"bcast": "segmented", "allreduce": "reduce_bcast"}

_overrides = threading.local()


def algorithm_for(collective: str, nbytes: int | None = None) -> str:
    """The algorithm the calling thread (rank) should run.

    Thread-local overrides (:func:`algorithm_overrides`) beat size-aware
    large-message selection beats the default.  ``nbytes`` is
    the dense payload size when the caller knows it (None for
    ``MPI.OBJECT`` traffic, whose size is rank-dependent).
    """
    active = getattr(_overrides, "active", None)
    if active:
        got = active.get(collective)
        if got is not None:
            return got
    if nbytes is not None and nbytes >= LARGE_MESSAGE_BYTES:
        large = LARGE_ALGORITHMS.get(collective)
        if large is not None:
            return large
    return DEFAULT_ALGORITHMS[collective]


def note_algorithm(comm, collective: str, algorithm: str,
                   nbytes: int | None = None) -> None:
    """Trace which algorithm a collective dispatcher settled on.

    Called by every entry point after ablation overrides and size-aware
    selection have been applied — the traced value is what actually
    runs.
    """
    if TRACE.enabled:
        TRACE.instant(comm.rt.world_rank, "coll.algo", "coll",
                      {"coll": collective, "algorithm": algorithm,
                       "bytes": nbytes, "size": comm.size})


@contextlib.contextmanager
def algorithm_overrides(**choices: str):
    """Scoped, thread-local algorithm selection for ablation runs.

    >>> with algorithm_overrides(bcast="linear"):
    ...     ...  # Bcast calls on this thread use the linear algorithm

    Unknown collectives raise immediately; unknown algorithm names are
    rejected by each collective's dispatcher (so an override of a variant
    that doesn't exist fails loudly at the call site).  Restores the
    previous overrides on exit — nesting composes.
    """
    for key in choices:
        if key not in ALGORITHM_CHOICES:
            raise MPIException(
                ERR_ARG, f"no collective {key!r} to override "
                         f"(have {sorted(ALGORITHM_CHOICES)})")
    prev = getattr(_overrides, "active", None)
    _overrides.active = {**(prev or {}), **choices}
    try:
        yield
    finally:
        _overrides.active = prev


# --- contribution plumbing ----------------------------------------------------

def check_root(comm, root: int) -> None:
    if not 0 <= root < comm.size:
        raise MPIException(ERR_ROOT, f"root {root} out of range for "
                                     f"{comm.name} (size {comm.size})")


def extract_contrib(buf, offset, count, datatype):
    """One rank's contribution in dense form (window validated here): a
    fresh gather copy, so storage the schedule owns."""
    if datatype.base.is_object:
        validate_buffer(buf, offset, count, datatype)
        return ("obj", list(buf[offset:offset + count]))
    return ("dense", extract_send_payload(buf, offset, count, datatype)[0])


def reduction_accum(sendbuf, soffset, recvbuf, roffset, count, datatype):
    """A dense reduction's accumulator, holding this rank's contribution.

    ``(contribution, in_window)``: the (validated) result window itself
    when it is contiguous and writable — the send window is copied in
    once, as if through a temporary should the two overlap, and nothing
    is left to land — else the gather copy, landed once at the end.
    """
    lay = validate_buffer(sendbuf, soffset, count, datatype)
    n = count * lay.size_elems
    if lay.contiguous and recvbuf.flags.c_contiguous \
            and recvbuf.flags.writeable:
        accum = recvbuf[roffset:roffset + n]
        accum[:] = sendbuf[soffset:soffset + n]
        return ("dense", accum), True
    return ("dense", lay.gather(sendbuf, soffset, count)), False


def scratch(contrib):
    """Where a peer's like-shaped contribution lands: a private array
    for dense data (``Recv(..., into=...)``), None for objects (boxes)."""
    kind, data = contrib
    return np.empty_like(data) if kind == "dense" else None


def land_contrib(buf, offset, count, datatype, contrib,
                 elem_lo: int = 0) -> int:
    """Land a contribution — or one pipeline segment of a dense one, at
    dense element ``elem_lo``, so pipelined algorithms never materialize
    the concatenated message — in the user buffer."""
    kind, data = contrib
    return land_dense(buf, offset, count, datatype, data, kind == "obj",
                      elem_lo)


def segment_bounds(nelems: int, itemsize: int) -> list[int]:
    """Element boundaries cutting ``nelems`` into SEGMENT_BYTES pieces."""
    step = max(1, SEGMENT_BYTES // max(1, itemsize))
    bounds = list(range(0, nelems, step)) + [nelems]
    if len(bounds) == 1:    # empty payload: one empty segment
        bounds = [0, 0]
    return bounds


def send_contrib(comm, contrib, dest: int, tag: int, borrow: bool = False):
    """Ship one contribution; returns the send's request."""
    kind, data = contrib
    if kind == "obj":
        return comm.coll_send(serialize_objects(data), len(data), True,
                              dest, tag)
    return comm.coll_send(data, int(data.shape[0]), False, dest, tag, borrow)


def contrib_from_env(env):
    """Decode an arrived collective-context envelope into a contribution."""
    if env.is_object:
        return ("obj", deserialize_objects(bytes(env.payload)))
    payload = env.payload
    if payload is None:
        payload = np.empty(0, dtype=np.int8)
    return ("dense", payload)


def combine(op, invec_contrib, inout_contrib, datatype):
    """``inout = invec OP inout``, written into ``inout``'s own storage
    (a fresh list for objects); returns the folded contribution.

    ``inout`` must be storage this rank's schedule owns — see the module
    docstring; ``invec`` is only read.
    """
    kind_a, a = invec_contrib
    kind_b, b = inout_contrib
    if kind_a != kind_b:
        raise MPIException(ERR_ROOT,
                           "mixed object/primitive reduction contributions")
    if kind_a == "obj":
        return ("obj", op.reduce_objects(a, b))
    op.reduce_dense(a, b, datatype)
    return inout_contrib


def fold(op, theirs, accum, datatype) -> None:
    """Schedule compute: fold box ``theirs`` into box ``accum``."""
    accum.contrib = combine(op, theirs.contrib, accum.contrib, datatype)


def concat(contribs):
    """Concatenate contributions rank order (gather/allgather plumbing)."""
    kinds = {k for k, _ in contribs}
    if kinds == {"obj"}:
        out = []
        for _, data in contribs:
            out.extend(data)
        return ("obj", out)
    return ("dense", np.concatenate([d for _, d in contribs]))


def slice_contrib(contrib, start: int, stop: int):
    kind, data = contrib
    return (kind, data[start:stop])


def empty_token():
    """Zero-length contribution used by barrier rounds."""
    return ("dense", np.empty(0, dtype=np.int8))
