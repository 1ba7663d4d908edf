"""Per-rank opaque handle tables.

The MPI C API manipulates opaque objects through handles acquired from
constructor functions; each process owns its own handle space.  Our ranks
are threads, so each :class:`~repro.runtime.engine.RankRuntime` carries one
:class:`HandleTable` (lazily created).  Predefined handles are small fixed
integers identical on every rank, like the compile-time constants of a C
``mpi.h``.
"""

from __future__ import annotations

from repro.errors import MPIException, ERR_ARG
from repro.datatypes import primitives as P
from repro.runtime import reduce_ops as OPS
from repro.runtime.groups import EMPTY_GROUP

# --- predefined handle values (the "mpi.h constants") -------------------------
COMM_NULL = 0
COMM_WORLD = 1
COMM_SELF = 2

DATATYPE_NULL = 0
DT_BYTE, DT_CHAR, DT_SHORT, DT_BOOLEAN, DT_INT, DT_LONG = 1, 2, 3, 4, 5, 6
DT_FLOAT, DT_DOUBLE, DT_PACKED = 7, 8, 9
DT_SHORT2, DT_INT2, DT_LONG2, DT_FLOAT2, DT_DOUBLE2 = 10, 11, 12, 13, 14
DT_OBJECT = 15

OP_NULL = 0
(OP_MAX, OP_MIN, OP_SUM, OP_PROD, OP_LAND, OP_LOR, OP_LXOR, OP_BAND,
 OP_BOR, OP_BXOR, OP_MAXLOC, OP_MINLOC) = range(1, 13)

GROUP_NULL = 0
GROUP_EMPTY = 1

REQUEST_NULL = 0

ERRHANDLER_NULL = 0
ERRORS_ARE_FATAL = 1
ERRORS_RETURN = 2

_PREDEF_DATATYPES = {
    DT_BYTE: P.BYTE, DT_CHAR: P.CHAR, DT_SHORT: P.SHORT,
    DT_BOOLEAN: P.BOOLEAN, DT_INT: P.INT, DT_LONG: P.LONG,
    DT_FLOAT: P.FLOAT, DT_DOUBLE: P.DOUBLE, DT_PACKED: P.PACKED,
    DT_SHORT2: P.SHORT2, DT_INT2: P.INT2, DT_LONG2: P.LONG2,
    DT_FLOAT2: P.FLOAT2, DT_DOUBLE2: P.DOUBLE2, DT_OBJECT: P.OBJECT,
}

_PREDEF_OPS = {
    OP_MAX: OPS.MAX, OP_MIN: OPS.MIN, OP_SUM: OPS.SUM, OP_PROD: OPS.PROD,
    OP_LAND: OPS.LAND, OP_LOR: OPS.LOR, OP_LXOR: OPS.LXOR,
    OP_BAND: OPS.BAND, OP_BOR: OPS.BOR, OP_BXOR: OPS.BXOR,
    OP_MAXLOC: OPS.MAXLOC, OP_MINLOC: OPS.MINLOC,
}

_FIRST_DYNAMIC_HANDLE = 100


class HandleSpace:
    """One class of handles (communicators, datatypes, ...)."""

    def __init__(self, name: str, predefined: dict[int, object]):
        self.name = name
        self._by_handle: dict[int, object] = dict(predefined)
        self._handle_by_id: dict[int, int] = {
            id(obj): h for h, obj in predefined.items()}
        self._next = _FIRST_DYNAMIC_HANDLE

    def register(self, obj) -> int:
        """Intern an object; returns its (possibly existing) handle."""
        h = self._handle_by_id.get(id(obj))
        if h is not None:
            return h
        h = self._next
        self._next += 1
        self._by_handle[h] = obj
        self._handle_by_id[id(obj)] = h
        return h

    def lookup(self, handle: int):
        try:    # the handle as given first: almost always a plain int
            return self._by_handle[handle]
        except (KeyError, TypeError):
            try:
                return self._by_handle[int(handle)]
            except (KeyError, TypeError, ValueError):
                raise MPIException(
                    ERR_ARG, f"invalid or null {self.name} handle "
                             f"{handle!r}") from None

    def release(self, handle: int) -> None:
        if int(handle) < _FIRST_DYNAMIC_HANDLE:
            raise MPIException(
                ERR_ARG, f"predefined {self.name} handle {handle!r} "
                         f"cannot be released")
        obj = self._by_handle.pop(int(handle), None)
        if obj is not None:
            self._handle_by_id.pop(id(obj), None)

    def contains(self, handle: int) -> bool:
        return int(handle) in self._by_handle


class RequestSpace(HandleSpace):
    """Request handles: each operation is a new object registered once
    and released once, so nothing is interned."""

    def register(self, obj) -> int:
        h = self._next
        self._next += 1
        self._by_handle[h] = obj
        return h

    def release(self, handle: int) -> None:
        self._by_handle.pop(handle, None)


class HandleTable:
    """All handle spaces for one rank."""

    def __init__(self, rt):
        self.rt = rt
        self.comms = HandleSpace("communicator", {
            COMM_WORLD: rt.comm_world, COMM_SELF: rt.comm_self})
        self.datatypes = HandleSpace("datatype", dict(_PREDEF_DATATYPES))
        self.ops = HandleSpace("operation", dict(_PREDEF_OPS))
        self.groups = HandleSpace("group", {GROUP_EMPTY: EMPTY_GROUP})
        self.requests = RequestSpace("request", {})
        self.errhandlers = HandleSpace("errhandler", {
            ERRORS_ARE_FATAL: "errors_are_fatal",
            ERRORS_RETURN: "errors_return"})


def tables_for(rt) -> HandleTable:
    """The handle table of a rank runtime (created on first use)."""
    table = getattr(rt, "_handle_table", None)
    if table is None:
        table = HandleTable(rt)
        rt._handle_table = table
    return table
