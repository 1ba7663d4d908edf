"""``Comm`` — base communicator class (paper §2).

All communication functions in mpiJava are members of ``Comm`` or its
subclasses.  The standard send/receive members have the interfaces the
paper gives verbatim::

    public void Send(Object buf, int offset, int count,
                     Datatype datatype, int dest, int tag)
    public Status Recv(Object buf, int offset, int count,
                       Datatype datatype, int source, int tag)

Buffers are one-dimensional arrays of primitive element type (NumPy arrays
here; lists of objects for ``MPI.OBJECT``), always with an explicit offset.

Every member reaches the runtime through the flat JNI-stub layer
(:mod:`repro.jni.capi`), and charges the binding's per-call wrapper cost to
the job's cost model when one is installed (modeled benchmark mode) — the
two halves of the paper's C-versus-Java comparison.  This layer is the
paper's public interface and is written out by hand, docstrings and all;
the stub under each member is a row of :mod:`repro.jni.spec`, and a
member's parameter names are its row's minus the receiver
(``tests/unit/test_capi_spec.py`` holds the two together).
"""

from __future__ import annotations

from typing import Optional

from repro.jni import capi, handles as H
from repro.mpijava.datatype import Datatype
from repro.mpijava.errhandler import (ERRORS_ARE_FATAL, ERRORS_RETURN,
                                      Errhandler, guarded_call, route_error)
from repro.mpijava.group import Group
from repro.mpijava import profiler
from repro.mpijava.prequest import Prequest
from repro.mpijava.request import Request
from repro.mpijava.status import Status
from repro.runtime.engine import current_runtime, try_current_runtime


class Comm:
    """Base communicator: point-to-point communication and management."""

    __slots__ = ("_handle",)

    def __init__(self, handle: int):
        self._handle = handle

    # ------------------------------------------------------------------
    # binding plumbing: error handlers + wrapper cost accounting
    # ------------------------------------------------------------------
    def _guard(self, fn, *args):
        """Run a stub call under this communicator's error handler.

        *Any* exception escaping the stub layer is routed through the
        communicator's error handler — not just :class:`MPIException`.  A
        non-MPI exception (a user reduction op raising ``ValueError``, a
        payload whose unpickling fails, …) is wrapped as
        ``MPIException(ERR_OTHER)`` with the original preserved as
        ``__cause__`` under ``ERRORS_RETURN``, and poisons the whole job
        under ``ERRORS_ARE_FATAL`` — so one rank's failure can never leave
        its peers blocked.  :class:`AbortException` always propagates: the
        job is already dead.

        When PMPI-style profilers are attached (see
        :mod:`repro.mpijava.profiler`) the call is routed through them;
        the common case is one falsy-list check and the stub, called
        here — the handler is looked up only once something failed.
        """
        if profiler._active:
            return profiler.dispatch(
                self, fn, args,
                lambda: guarded_call(self._errhandler, fn, *args))
        try:
            return fn(*args)
        except Exception as exc:
            route_error(exc, self._errhandler, fn)
            raise

    def _errhandler(self) -> int:
        """Handle of the error handler attached now (read on error only)."""
        return capi.mpi_errhandler_get(self._handle)

    @staticmethod
    def _charge(count: int, datatype: Datatype) -> None:
        """Charge the OO binding's per-call cost to the job's cost model."""
        rt = try_current_runtime() or current_runtime()
        if rt.universe.cost_model is not None:
            rt.universe.charge_wrapper(count * datatype._cached_size())

    # ------------------------------------------------------------------
    # inquiry
    # ------------------------------------------------------------------
    def Rank(self) -> int:
        """Rank of this process within the communicator."""
        return self._guard(capi.mpi_comm_rank, self._handle)

    def Size(self) -> int:
        """Number of processes in the (local) group."""
        return self._guard(capi.mpi_comm_size, self._handle)

    def Group(self) -> Group:
        """The (local) group associated with this communicator."""
        return Group(self._guard(capi.mpi_comm_group, self._handle))

    @staticmethod
    def Compare(comm1: "Comm", comm2: "Comm") -> int:
        """``MPI.IDENT``/``CONGRUENT``/``SIMILAR``/``UNEQUAL``."""
        return capi.mpi_comm_compare(comm1._handle, comm2._handle)

    def Test_inter(self) -> bool:
        return self._guard(capi.mpi_comm_test_inter, self._handle)

    def Is_null(self) -> bool:
        return self._handle == H.COMM_NULL

    # ------------------------------------------------------------------
    # blocking point-to-point (paper §2 interfaces)
    # ------------------------------------------------------------------
    def Send(self, buf, offset, count, datatype, dest, tag) -> None:
        """Standard-mode blocking send."""
        self._charge(count, datatype)
        self._guard(capi.mpi_send, self._handle, buf, offset, count,
                    datatype._handle, dest, tag)

    def Bsend(self, buf, offset, count, datatype, dest, tag) -> None:
        """Buffered-mode send (requires ``MPI.Buffer_attach``)."""
        self._charge(count, datatype)
        self._guard(capi.mpi_bsend, self._handle, buf, offset, count,
                    datatype._handle, dest, tag)

    def Ssend(self, buf, offset, count, datatype, dest, tag) -> None:
        """Synchronous-mode send: completes when the receive starts."""
        self._charge(count, datatype)
        self._guard(capi.mpi_ssend, self._handle, buf, offset, count,
                    datatype._handle, dest, tag)

    def Rsend(self, buf, offset, count, datatype, dest, tag) -> None:
        """Ready-mode send: the matching receive must already be posted."""
        self._charge(count, datatype)
        self._guard(capi.mpi_rsend, self._handle, buf, offset, count,
                    datatype._handle, dest, tag)

    def Recv(self, buf, offset, count, datatype, source, tag) -> Status:
        """Blocking receive; returns the :class:`Status`."""
        self._charge(count, datatype)
        return Status(self._guard(capi.mpi_recv, self._handle, buf, offset,
                                  count, datatype._handle, source, tag))

    # ------------------------------------------------------------------
    # non-blocking point-to-point
    # ------------------------------------------------------------------
    def Isend(self, buf, offset, count, datatype, dest, tag) -> Request:
        self._charge(count, datatype)
        return Request(self._guard(capi.mpi_isend, self._handle, buf,
                                   offset, count, datatype._handle, dest,
                                   tag))

    def Ibsend(self, buf, offset, count, datatype, dest, tag) -> Request:
        self._charge(count, datatype)
        return Request(self._guard(capi.mpi_ibsend, self._handle, buf,
                                   offset, count, datatype._handle, dest,
                                   tag))

    def Issend(self, buf, offset, count, datatype, dest, tag) -> Request:
        self._charge(count, datatype)
        return Request(self._guard(capi.mpi_issend, self._handle, buf,
                                   offset, count, datatype._handle, dest,
                                   tag))

    def Irsend(self, buf, offset, count, datatype, dest, tag) -> Request:
        self._charge(count, datatype)
        return Request(self._guard(capi.mpi_irsend, self._handle, buf,
                                   offset, count, datatype._handle, dest,
                                   tag))

    def Irecv(self, buf, offset, count, datatype, source, tag) -> Request:
        self._charge(count, datatype)
        return Request(self._guard(capi.mpi_irecv, self._handle, buf,
                                   offset, count, datatype._handle, source,
                                   tag))

    # ------------------------------------------------------------------
    # persistent requests
    # ------------------------------------------------------------------
    def Send_init(self, buf, offset, count, datatype, dest,
                  tag) -> Prequest:
        return Prequest(self._guard(capi.mpi_send_init, self._handle, buf,
                                    offset, count, datatype._handle, dest,
                                    tag))

    def Bsend_init(self, buf, offset, count, datatype, dest,
                   tag) -> Prequest:
        return Prequest(self._guard(capi.mpi_bsend_init, self._handle, buf,
                                    offset, count, datatype._handle, dest,
                                    tag))

    def Ssend_init(self, buf, offset, count, datatype, dest,
                   tag) -> Prequest:
        return Prequest(self._guard(capi.mpi_ssend_init, self._handle, buf,
                                    offset, count, datatype._handle, dest,
                                    tag))

    def Rsend_init(self, buf, offset, count, datatype, dest,
                   tag) -> Prequest:
        return Prequest(self._guard(capi.mpi_rsend_init, self._handle, buf,
                                    offset, count, datatype._handle, dest,
                                    tag))

    def Recv_init(self, buf, offset, count, datatype, source,
                  tag) -> Prequest:
        return Prequest(self._guard(capi.mpi_recv_init, self._handle, buf,
                                    offset, count, datatype._handle, source,
                                    tag))

    # ------------------------------------------------------------------
    # combined / probe
    # ------------------------------------------------------------------
    def Sendrecv(self, sendbuf, soffset, scount, sdtype, dest, stag,
                 recvbuf, roffset, rcount, rdtype, source,
                 rtag) -> Status:
        self._charge(scount, sdtype)
        self._charge(rcount, rdtype)
        return Status(self._guard(capi.mpi_sendrecv, self._handle,
                                  sendbuf, soffset, scount, sdtype._handle,
                                  dest, stag, recvbuf, roffset, rcount,
                                  rdtype._handle, source, rtag))

    def Sendrecv_replace(self, buf, offset, count, datatype, dest, stag,
                         source, rtag) -> Status:
        self._charge(count, datatype)
        return Status(self._guard(capi.mpi_sendrecv_replace, self._handle,
                                  buf, offset, count, datatype._handle,
                                  dest, stag, source, rtag))

    def Probe(self, source, tag) -> Status:
        """Blocking probe; the Status sizes a subsequent receive."""
        return Status(self._guard(capi.mpi_probe, self._handle, source,
                                  tag))

    def Iprobe(self, source, tag) -> Optional[Status]:
        """Non-blocking probe; None when no matching message is pending."""
        flag, cstatus = self._guard(capi.mpi_iprobe, self._handle, source,
                                    tag)
        return Status(cstatus) if flag else None

    # ------------------------------------------------------------------
    # pack / unpack (comm-scoped, as in MPI)
    # ------------------------------------------------------------------
    def Pack(self, inbuf, offset, incount, datatype, outbuf,
             position) -> int:
        """Pack elements into a byte buffer; returns the new position."""
        return self._guard(capi.mpi_pack, inbuf, offset, incount,
                           datatype._handle, outbuf, position)

    def Unpack(self, inbuf, position, outbuf, offset, outcount,
               datatype) -> int:
        """Inverse of :meth:`Pack`; returns the new position."""
        return self._guard(capi.mpi_unpack, inbuf, position, outbuf,
                           offset, outcount, datatype._handle)

    def Pack_size(self, incount, datatype) -> int:
        return self._guard(capi.mpi_pack_size, incount, datatype._handle)

    # ------------------------------------------------------------------
    # management
    # ------------------------------------------------------------------
    def Dup(self) -> "Comm":
        """Duplicate with fresh contexts and copied (callback-filtered)
        attributes."""
        return type(self)(self._guard(capi.mpi_comm_dup, self._handle))

    def Free(self) -> None:
        """Explicit free — one of the two classes whose destructor is not
        left to the garbage collector (paper §2.1)."""
        capi.mpi_comm_free(self._handle)
        self._handle = H.COMM_NULL

    def Abort(self, errorcode: int) -> None:
        capi.mpi_abort(self._handle, errorcode)

    # -- fault tolerance (ULFM-style extensions) ----------------------------
    def Revoke(self) -> None:
        """Revoke this communicator on every member (ULFM
        ``MPIX_Comm_revoke``): pending and future operations on it
        complete with ``ERR_REVOKED`` everywhere, reliably, even if
        this rank dies mid-broadcast."""
        self._guard(capi.mpi_comm_revoke, self._handle)

    def Is_revoked(self) -> bool:
        return self._guard(capi.mpi_comm_is_revoked, self._handle)

    def Shrink(self) -> "Comm":
        """A new communicator over the surviving members (ULFM
        ``MPIX_Comm_shrink``); works on a revoked communicator."""
        return type(self)(self._guard(capi.mpi_comm_shrink, self._handle))

    def Agree(self, flag: int) -> int:
        """Fault-tolerant agreement (ULFM ``MPIX_Comm_agree``): the
        bitwise AND of every surviving member's ``flag``, identical on
        all survivors even across failures during the call."""
        return self._guard(capi.mpi_comm_agree, self._handle, flag)

    # -- error handlers -----------------------------------------------------
    def Errhandler_set(self, errhandler: Errhandler) -> None:
        capi.mpi_errhandler_set(self._handle, errhandler._handle)

    def Errhandler_get(self) -> Errhandler:
        h = self._errhandler()
        return ERRORS_RETURN if h == H.ERRORS_RETURN else ERRORS_ARE_FATAL

    # -- attribute caching ----------------------------------------------------
    def Attr_put(self, keyval: int, value) -> None:
        self._guard(capi.mpi_attr_put, self._handle, keyval, value)

    def Attr_get(self, keyval: int):
        """Cached attribute value, or None (paper §2.1: a null result
        replaces C's flag output)."""
        return self._guard(capi.mpi_attr_get, self._handle, keyval)

    def Attr_delete(self, keyval: int) -> None:
        self._guard(capi.mpi_attr_delete, self._handle, keyval)

    def Topo_test(self) -> int:
        """``MPI.CART``, ``MPI.GRAPH`` or ``MPI.UNDEFINED``."""
        return self._guard(capi.mpi_topo_test, self._handle)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}(handle={self._handle})"
