"""``MPI_Pack`` / ``MPI_Unpack`` / ``MPI_Pack_size``.

Packing is a send and a receive whose other end is a user byte buffer,
so it takes the communication datapath whole: the window is validated by
:func:`repro.runtime.buffers.validate_buffer`, the elements move through
the datatype's layout IR (:mod:`repro.datatypes.layout`), and nothing
here chooses a copy strategy.  :data:`DATAPATH` is re-exported for the
callers that have always read it from this module.
"""

from __future__ import annotations

import numpy as np

from repro.errors import MPIException, ERR_ARG, ERR_TRUNCATE
from repro.datatypes.base import DatatypeImpl
from repro.datatypes.layout import DATAPATH
from repro.datatypes.object_serial import deserialize_objects
from repro.runtime.buffers import extract_send_payload, validate_buffer

__all__ = ["pack", "unpack", "pack_size", "DATAPATH"]


def pack_size(incount: int, datatype: DatatypeImpl) -> int:
    """Upper bound on packed bytes (``MPI_Pack_size``)."""
    datatype._check_alive()
    if datatype.base.is_object:
        raise MPIException(ERR_ARG, "Pack_size of MPI.OBJECT is not defined "
                                    "before serialization")
    return incount * datatype.size_bytes()


def pack(inbuf, offset: int, incount: int, datatype: DatatypeImpl,
         outbuf: np.ndarray, position: int) -> int:
    """``MPI_Pack`` — append selected elements to ``outbuf`` at ``position``.

    ``outbuf`` must be a byte buffer (``MPI.PACKED``-compatible, uint8).
    Returns the new position.
    """
    payload, _, is_object = extract_send_payload(inbuf, offset, incount,
                                                 datatype)
    if is_object:
        data = np.frombuffer(np.int64(len(payload)).tobytes() + payload,
                             dtype=np.uint8)
    else:
        data = payload.view(np.uint8)
    end = position + len(data)
    if end > len(outbuf):
        raise MPIException(ERR_TRUNCATE,
                           f"pack overflows outbuf: need {end} bytes, "
                           f"have {len(outbuf)}")
    outbuf[position:end] = data
    return end


def unpack(inbuf: np.ndarray, position: int, outbuf, offset: int,
           outcount: int, datatype: DatatypeImpl) -> int:
    """``MPI_Unpack`` — extract elements from a packed byte buffer.

    Returns the new position.
    """
    lay = validate_buffer(outbuf, offset, outcount, datatype)
    if lay is None:
        hdr_end = position + 8
        nbytes = int(np.frombuffer(
            inbuf[position:hdr_end].tobytes(), dtype=np.int64)[0])
        end = hdr_end + nbytes
        objs = deserialize_objects(inbuf[hdr_end:end].tobytes())
        if len(objs) < outcount:
            raise MPIException(ERR_TRUNCATE,
                               f"unpacked {len(objs)} objects, "
                               f"need {outcount}")
        for i in range(outcount):
            outbuf[offset + i] = objs[i]
        return end
    nbytes = outcount * datatype.size_bytes()
    end = position + nbytes
    if end > len(inbuf):
        raise MPIException(ERR_TRUNCATE,
                           f"unpack underflow: need {nbytes} bytes at "
                           f"{position}, have {len(inbuf)}")
    elems = np.frombuffer(inbuf[position:end].tobytes(),
                          dtype=datatype.base.np_dtype)
    lay.scatter(outbuf, offset, outcount, elems)
    return end
