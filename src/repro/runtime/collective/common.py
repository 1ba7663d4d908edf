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

Fault containment: everything here runs inside a schedule (see
:mod:`repro.runtime.nbc.progress`), blocking collectives included — a
user reduction op (or decode) that raises fails *that rank's* request
with the original exception preserved, and a job abort fails every
in-flight schedule, so no collective can strand a peer in a wait.
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

LARGE_ALGORITHMS = {"bcast": "segmented", "allreduce": "ring"}

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
    """One rank's contribution in dense form (window validated here)."""
    if datatype.base.is_object:
        validate_buffer(buf, offset, count, datatype)
        return ("obj", list(buf[offset:offset + count]))
    return ("dense", extract_send_payload(buf, offset, count, datatype)[0])


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


def send_contrib(comm, contrib, dest: int, tag: int) -> None:
    kind, data = contrib
    if kind == "obj":
        comm.coll_send(serialize_objects(data), len(data), True, dest, tag)
    else:
        comm.coll_send(data, int(data.shape[0]), False, dest, tag)


def contrib_from_env(env):
    """Decode an arrived collective-context envelope into a contribution."""
    if env.is_object:
        return ("obj", deserialize_objects(bytes(env.payload)))
    payload = env.payload
    if payload is None:
        payload = np.empty(0, dtype=np.int8)
    return ("dense", payload)


def writable(contrib):
    """A private mutable copy of a contribution.

    Always copies: the in-process transport hands payload arrays over by
    reference, so a contribution that arrived from (or was sent to) a peer
    may alias that peer's live accumulator.  Reduction algorithms must
    combine into private storage only.
    """
    kind, data = contrib
    if kind == "obj":
        return (kind, list(data))
    return (kind, data.copy())


def combine(op, invec_contrib, inout_contrib, datatype):
    """Pure combine: ``invec OP inout`` into *fresh* storage.

    Contributions must be treated as immutable once created: the in-process
    transport passes arrays by reference, so an array this rank sent (or
    received) may be concurrently read by a peer.  Combining in place into
    a shared array is a data race — always allocate.
    """
    kind_a, a = invec_contrib
    kind_b, b = inout_contrib
    if kind_a != kind_b:
        raise MPIException(ERR_ROOT,
                           "mixed object/primitive reduction contributions")
    if kind_a == "obj":
        return ("obj", op.reduce_objects(a, b))
    out = b.copy()
    op.reduce_dense(a, out, datatype)
    return ("dense", out)


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
