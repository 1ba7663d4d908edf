"""Buffer validation and endpoint copy in/out.

The binding follows the paper's Java model: a message buffer is a
one-dimensional array of a single primitive type, and every call takes an
explicit ``offset``.  Here that means:

* primitive/derived datatypes require a 1-D ``numpy.ndarray`` whose dtype
  equals the datatype's base dtype (strict agreement, like Java's typed
  arrays — no silent casting);
* ``MPI.OBJECT`` accepts any mutable sequence (list, object ndarray) of
  serializable Python objects;
* ``count`` instances at ``offset`` must fit the array — Java's bounds
  check, made once by :func:`validate_buffer` in the call that named the
  window (every send, receive post, persistent init, pack and collective
  landing), in the calling rank's thread.  Nothing after it re-checks:
  copies, views and landings trust the window, and how the elements move
  is the layout IR's decision (:mod:`repro.datatypes.layout`).
"""

from __future__ import annotations

import numpy as np

from repro.errors import (MPIException, ERR_BUFFER, ERR_COUNT, ERR_TRUNCATE,
                          ERR_TYPE, SUCCESS)
from repro.datatypes.base import DatatypeImpl
from repro.datatypes.layout import DATAPATH, LayoutIR
from repro.datatypes.object_serial import (deserialize_objects,
                                           serialize_objects)
from repro.runtime.envelope import IOVecPayload


def validate_buffer(buf, offset: int, count: int,
                    datatype: DatatypeImpl) -> LayoutIR | None:
    """Argument validation for every entry point that names a window.

    Returns the datatype's layout IR (None for ``MPI.OBJECT``), which
    the caller moves the elements with.
    """
    lay = datatype.layout()         # raises for a freed type
    if not datatype.committed:
        raise MPIException(ERR_TYPE,
                           f"datatype {datatype.name} is not committed")
    if count < 0:
        raise MPIException(ERR_COUNT, f"negative count {count}")
    if offset < 0:
        raise MPIException(ERR_BUFFER, f"negative offset {offset}")
    base = datatype.base
    if base.is_object:
        if isinstance(buf, np.ndarray) and buf.dtype != object:
            raise MPIException(ERR_BUFFER,
                               "MPI.OBJECT requires an object array or list")
        if not hasattr(buf, "__len__"):
            raise MPIException(ERR_BUFFER, "buffer must be a sequence")
        if offset + count > len(buf):
            raise MPIException(ERR_BUFFER,
                               f"{count} objects at offset {offset} exceed "
                               f"buffer length {len(buf)}")
        return None
    if not isinstance(buf, np.ndarray):
        raise MPIException(
            ERR_BUFFER,
            f"buffers must be 1-D numpy arrays (got {type(buf).__name__}); "
            f"the binding mirrors Java's primitive-array restriction")
    if buf.ndim != 1:
        raise MPIException(
            ERR_BUFFER,
            f"buffers must be one-dimensional (got {buf.ndim}-D); Java "
            f"multidimensional arrays are arrays of arrays — see paper §2")
    if buf.dtype != base.np_dtype:
        raise MPIException(
            ERR_TYPE,
            f"buffer dtype {buf.dtype} does not match datatype base "
            f"{base.name} ({base.np_dtype})")
    # the window: lowest and highest element of ``count`` instances
    if lay.contiguous:
        lo, hi = offset, offset + count * lay.size_elems
    elif count == 0 or lay.size_elems == 0:
        lo = hi = offset
    else:
        last = (count - 1) * lay.extent_elems
        lo = offset + lay.span_lo + min(last, 0)
        hi = offset + lay.span_hi + max(last, 0)
    if lo < 0 or hi > buf.shape[0]:
        raise MPIException(
            ERR_BUFFER,
            f"datatype {datatype.name} x{count} at offset {offset} spans "
            f"elements [{lo},{hi}) of a buffer of length {buf.shape[0]}")
    return lay


def extract_send_payload(buf, offset: int, count: int,
                         datatype: DatatypeImpl, allow_view: bool = False):
    """Validate the send window and gather it into its wire form.

    Returns ``(payload, nelems, is_object)`` where payload is a dense
    ndarray of base elements, a pickled blob for ``MPI.OBJECT``, or —
    under ``allow_view=True`` — a zero-copy borrow of the user buffer.

    ``allow_view=True`` permits borrowing the user buffer instead of
    gather-copying: a plain view for contiguous layouts, a per-run
    :class:`~repro.runtime.envelope.IOVecPayload` for noncontiguous
    layouts the IR deems wire-friendly.  Only wire send paths may ask
    for this: their requests complete once the bytes have been flushed
    (``on_flushed``), which is exactly when MPI lets the user touch the
    buffer again — SM handoffs pass references to the receiver and
    therefore always need the private copy.
    """
    lay = validate_buffer(buf, offset, count, datatype)
    if lay is None:
        blob = serialize_objects(list(buf[offset:offset + count]))
        return blob, count, True
    n = count * lay.size_elems
    if allow_view:
        if lay.contiguous:
            DATAPATH.shard.counts["send_view"] += 1
            return buf[offset:offset + n], n, False
        if lay.wire_friendly(n) and buf.flags.c_contiguous:
            DATAPATH.shard.counts["send_iovec"] += 1
            return (IOVecPayload(lay.byte_views(buf, offset, n),
                                 datatype.base.np_dtype, n * lay.itemsize),
                    n, False)
        DATAPATH.shard.counts["send_gather"] += 1
    return lay.gather(buf, offset, count), n, False


def recv_byte_views(buf, offset: int, count: int, datatype: DatatypeImpl,
                    env) -> list[memoryview] | None:
    """Writable byte views of the receive window for zero-copy landing.

    The direct-landing fast paths (rendezvous streaming and the eager
    header-peek) move payload bytes from the socket straight into the
    posted user buffer with ``recv_into`` — legal exactly when the
    landing is a sequence of dense slice assignments.  For contiguous
    layouts that is one view; for derived layouts the IR's per-run
    views, in serialization order, so streaming the dense wire payload
    into them *is* the scatter.  ``env`` is the envelope announcing the
    payload (element count, dtype, size).  Returns None whenever the
    full landing logic must run instead (object data, dtype
    disagreement, truncation, wire-unfriendly layouts): the transport
    then stages the body and :func:`land_payload` reports the proper MPI
    error.
    """
    base = datatype.base
    lay = datatype.layout()
    nelems = env.nelems
    views = None
    if not (base.is_object or env.is_object) \
            and env.rndv_dtype == base.np_dtype \
            and 0 < nelems <= count * lay.size_elems \
            and nelems * lay.itemsize == env.rndv_nbytes \
            and lay.wire_friendly(nelems) \
            and buf.flags.c_contiguous and buf.flags.writeable:
        views = [memoryview(buf[offset:offset + nelems]).cast("B")] \
            if lay.contiguous else lay.byte_views(buf, offset, nelems)
    DATAPATH.shard.counts["recv_direct" if views is not None
                          else "recv_refused"] += 1
    return views


def _land_objects(buf, offset: int, count: int, objs) -> tuple[int, int, str]:
    n = len(objs)
    if n > count:
        return 0, ERR_TRUNCATE, (f"message of {n} objects truncated to "
                                 f"posted count {count}")
    for i, obj in enumerate(objs):
        buf[offset + i] = obj
    return n, SUCCESS, ""


def _land_elements(buf, offset: int, count: int, datatype: DatatypeImpl,
                   data) -> tuple[int, int, str]:
    """Land dense base elements from the start of a validated window of
    ``count`` instances.  Landing *less* than the window holds is fine;
    more is the MPI truncation error."""
    if data is None or data.shape[0] == 0:
        # empty messages carry no element data; the wire format encodes
        # them with a placeholder dtype, so skip the dtype agreement check
        return 0, SUCCESS, ""
    if data.dtype != datatype.base.np_dtype:
        return 0, ERR_TYPE, (f"message of {data.dtype} elements received "
                             f"into {datatype.base.name} buffer")
    lay = datatype.layout()
    nelems = int(data.shape[0])
    capacity = count * lay.size_elems
    if nelems > capacity:
        return 0, ERR_TRUNCATE, (f"message of {nelems} elements "
                                 f"truncated to capacity {capacity}")
    if nelems % lay.size_elems:
        # a partial trailing instance
        lay.scatter_range(buf, offset, data)
    else:
        lay.scatter(buf, offset, nelems // lay.size_elems, data)
    return nelems, SUCCESS, ""


def land_dense(buf, offset: int, count: int, datatype: DatatypeImpl,
               data, is_object: bool) -> int:
    """Validate a landing window and land decoded data in it; raises.

    The one landing collective algorithms share: ``data`` is a list of
    objects or a dense array of base elements.  This is where a
    collective's per-rank windows are checked, and unlike the mailbox path
    errors raise — in the rank whose schedule runs the landing.
    """
    validate_buffer(buf, offset, count, datatype)
    if datatype.base.is_object != is_object:
        raise MPIException(ERR_TYPE, "mixed object/primitive collective "
                                     "contribution")
    n, error, message = _land_objects(buf, offset, count, data) \
        if is_object else \
        _land_elements(buf, offset, count, datatype, data)
    if error != SUCCESS:
        raise MPIException(error, message)
    return n


def window_lander(buf, offset: int, count: int, datatype: DatatypeImpl,
                  lay: LayoutIR | None):
    """The mailbox ``land`` callback of a validated window: a dense
    message of its base type that fits a contiguous window is one slice
    copy; anything else is :func:`land_payload`'s, errors and all."""
    window = buf[offset:offset + count * lay.size_elems] \
        if lay is not None and lay.contiguous else None
    shard = DATAPATH.shard

    def land(env):
        data = env.payload
        if window is not None and type(data) is np.ndarray \
                and data.dtype == window.dtype \
                and 0 < data.shape[0] <= window.shape[0]:
            window[:data.shape[0]] = data
            shard.counts["scatter_contig"] += 1
            return data.shape[0], SUCCESS, ""
        return land_payload(buf, offset, count, datatype, env)

    return land


def land_payload(buf, offset: int, count: int, datatype: DatatypeImpl,
                 env) -> tuple[int, int, str]:
    """Land an arrived envelope in the posted (validated) receive window.

    Returns ``(count_elements, error_code, error_message)`` — the contract
    of the mailbox ``land`` callback: it runs in whichever thread made
    the match, so errors complete the request instead of raising there.
    """
    if datatype.base.is_object:
        if not env.is_object:
            return 0, ERR_TYPE, ("primitive message received into an "
                                 "MPI.OBJECT buffer")
        return _land_objects(buf, offset, count,
                             deserialize_objects(bytes(env.payload)))
    if env.is_object:
        return 0, ERR_TYPE, ("MPI.OBJECT message received into a "
                             "primitive buffer")
    return _land_elements(buf, offset, count, datatype, env.payload)
