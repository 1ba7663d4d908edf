"""The flat C-style MPI 1.1 API ("stubs").

Conventions mirror the C binding as closely as Python permits:

* all arguments that are opaque objects are integer handles;
* message buffers are (array, offset) pairs, as in the Java binding;
* output that C returns through pointer arguments comes back as return
  values (a tuple when there are several);
* errors raise :class:`~repro.errors.MPIException` (the OO layer maps this
  through the communicator's error handler, like ``MPI_Errhandler``).

The function set is the MPI 1.1 surface the paper's mpiJava wraps, one
row of :mod:`repro.jni.spec` each.  The regular stubs — fetch the
context, unwrap the handles, make one call, wrap the result — are
compiled from their rows at the bottom of this module, the way
``dataclasses`` compiles ``__init__``: one source text, one ``compile``,
plain module-level functions (``python -m repro.jni.spec --dump`` prints
the text; tracebacks and ``inspect.getsource`` show it).  Written out
here is what a row cannot say: ``Wait*/Test*``, ``Init`` / ``Finalize``,
the calls that assemble their result from several queries.
"""

from __future__ import annotations

import linecache

from repro.errors import MPIException, ERR_REQUEST
from repro.datatypes import derived as _derived
from repro.jni import handles as H
from repro.jni.handles import tables_for
from repro.jni.spec import CALLS, HANDLE_ROLES, Call
from repro.runtime import requests as _requests
from repro.runtime import topology as _topology
from repro.runtime.consts import UNDEFINED
from repro.runtime.engine import current_runtime, try_current_runtime, \
    RankRuntime, Universe, bind_thread

VERSION = (1, 1)


class CStatus:
    """The information a ``MPI_Status`` carries (plus mpiJava's ``index``)."""

    __slots__ = ("source", "tag", "error", "count_elements", "cancelled",
                 "index", "is_object")

    def __init__(self, source=-1, tag=-1, error=0, count_elements=0,
                 cancelled=False, index=UNDEFINED, is_object=False):
        self.source = source
        self.tag = tag
        self.error = error
        self.count_elements = count_elements
        self.cancelled = cancelled
        self.index = index
        self.is_object = is_object

    def __repr__(self):  # pragma: no cover - cosmetic
        return (f"CStatus(source={self.source}, tag={self.tag}, "
                f"count={self.count_elements})")


def _ctx():
    rt = current_runtime()
    # fail fast on a poisoned job: every stub entry point observes a job
    # abort at its next MPI call, even ranks that never block (e.g. a
    # compute loop issuing only eager sends)
    rt.universe.check_abort()
    return rt, tables_for(rt)


def _status_from_request(req, comm=None) -> CStatus:
    comm = comm or getattr(req, "source_comm", None)
    source = req.status_source_world
    if comm is not None and source >= 0:
        source = comm.source_rank_of_world(source)
    dt = getattr(req, "recv_datatype", None)
    return CStatus(source=source, tag=req.status_tag, error=req.error,
                   count_elements=req.count_elements,
                   cancelled=req.cancelled,
                   is_object=bool(dt is not None and dt.base.is_object))


def _lookup_request(t, request: int) -> _requests.RequestImpl:
    if request == H.REQUEST_NULL:
        raise MPIException(ERR_REQUEST, "null request handle")
    return t.requests.lookup(request)


# -- environment management (MPI 1.1 chapter 7) -------------------------------

def mpi_init(args=None) -> None:
    """``MPI_Init``.  Outside :func:`repro.mpirun`, binds a singleton job
    (like ``mpiexec -n 1``) to the calling thread."""
    rt = try_current_runtime()
    if rt is None:
        universe = Universe(1, transport="inproc")
        rt = RankRuntime(universe, 0)
        bind_thread(rt)
        rt._owns_universe = True
    rt.init()


def mpi_initialized() -> bool:
    rt = try_current_runtime()
    return bool(rt is not None and rt.initialized)


def mpi_finalize() -> None:
    rt = current_runtime()
    rt.finalize()
    if getattr(rt, "_owns_universe", False):
        rt.universe.close()


def mpi_finalized() -> bool:
    rt = try_current_runtime()
    return bool(rt is not None and rt.finalized)


def mpi_abort(comm: int, errorcode: int) -> None:
    rt, t = _ctx()
    t.comms.lookup(comm)  # validate
    rt.universe.abort(rt.world_rank, errorcode)


def mpi_get_version() -> tuple[int, int]:
    return VERSION


def mpi_pcontrol(level: int, *args) -> None:
    """Profiling control (MPI-1 §8.1): drive the attached profilers.

    Level 0 mutes attached :class:`~repro.mpijava.profiler.CommProfiler`
    instances, 1 unmutes them, 2 resets their accumulated state.  Other
    levels are implementation-defined and ignored, per the standard.
    """
    from repro.mpijava import profiler
    profiler.pcontrol(level)


# -- point-to-point (MPI 1.1 chapter 3): completion, probe, status queries ----

def _finish(t, handle, req, index=UNDEFINED) -> CStatus:
    """Status of a completed request, which is then retired: a
    persistent one goes inactive, any other gives up its handle."""
    status = _status_from_request(req)
    status.index = index
    if req.persistent:
        req.deactivate()
    else:
        t.requests.release(handle)
    return status


def mpi_wait(request: int) -> CStatus:
    rt, t = _ctx()
    req = _lookup_request(t, request)
    req.wait()
    return _finish(t, request, req)


def mpi_test(request: int) -> tuple[bool, CStatus | None]:
    rt, t = _ctx()
    req = _lookup_request(t, request)
    if not req.test():
        return False, None
    return True, _finish(t, request, req)


def _req_list(t, request_handles):
    return [None if h == H.REQUEST_NULL else t.requests.lookup(h)
            for h in request_handles]


def mpi_waitany(request_handles: list[int]) -> tuple[int, CStatus | None]:
    rt, t = _ctx()
    reqs = _req_list(t, request_handles)
    i = _requests.wait_any(reqs, rt.universe)
    if i < 0:
        return UNDEFINED, None
    return i, _finish(t, request_handles[i], reqs[i], i)


def mpi_testany(request_handles: list[int]) \
        -> tuple[bool, int, CStatus | None]:
    rt, t = _ctx()
    reqs = _req_list(t, request_handles)
    for i, r in enumerate(reqs):
        if r is not None and r.test():
            return True, i, _finish(t, request_handles[i], r, i)
    return False, UNDEFINED, None


def mpi_waitall(request_handles: list[int]) -> list[CStatus | None]:
    rt, t = _ctx()
    reqs = _req_list(t, request_handles)
    _requests.wait_all(reqs, rt.universe)
    return [None if r is None else _finish(t, request_handles[i], r, i)
            for i, r in enumerate(reqs)]


def mpi_testall(request_handles: list[int]) \
        -> tuple[bool, list[CStatus | None]]:
    rt, t = _ctx()
    reqs = _req_list(t, request_handles)
    if not _requests.test_all(reqs, rt.universe):
        return False, []
    return True, [None if r is None
                  else _finish(t, request_handles[i], r, i)
                  for i, r in enumerate(reqs)]


def mpi_waitsome(request_handles: list[int]) -> list[CStatus]:
    rt, t = _ctx()
    reqs = _req_list(t, request_handles)
    done = _requests.wait_some(reqs, rt.universe)
    return [_finish(t, request_handles[i], reqs[i], i) for i in done]


def mpi_testsome(request_handles: list[int]) -> list[CStatus]:
    rt, t = _ctx()
    reqs = _req_list(t, request_handles)
    done = _requests.test_some(reqs, rt.universe)
    return [_finish(t, request_handles[i], reqs[i], i) for i in done]


def _probe_status(info) -> CStatus:
    return CStatus(source=info.source, tag=info.tag,
                   count_elements=info.nelems, is_object=info.is_object)


def mpi_probe(comm, source, tag) -> CStatus:
    rt, t = _ctx()
    return _probe_status(t.comms.lookup(comm).probe(source, tag))


def mpi_iprobe(comm, source, tag) -> tuple[bool, CStatus | None]:
    rt, t = _ctx()
    info = t.comms.lookup(comm).iprobe(source, tag)
    if info is None:
        return False, None
    return True, _probe_status(info)


def mpi_cancel(request: int) -> None:
    rt, t = _ctx()
    req = _lookup_request(t, request)
    comm = getattr(req, "source_comm", None)
    if comm is not None:
        comm.cancel(req)
    elif req.kind == _requests.RequestImpl.KIND_RECV:
        rt.mailbox.cancel_recv(req)


def mpi_test_cancelled(status: CStatus) -> bool:
    return bool(status.cancelled)


def mpi_get_count(status: CStatus, datatype: int) -> int:
    rt, t = _ctx()
    dt = t.datatypes.lookup(datatype)
    n = status.count_elements
    if dt.base.is_object or dt.size_elems == 1:
        return n
    if dt.size_elems == 0:
        return 0    # MPI 1.1 §3.2.5: a zero-size datatype counts zero
    full, part = divmod(n, dt.size_elems)
    return UNDEFINED if part else full


def mpi_get_elements(status: CStatus, datatype: int) -> int:
    rt, t = _ctx()
    t.datatypes.lookup(datatype)  # validate
    return status.count_elements


def mpi_startall(request_handles: list[int]) -> None:
    rt, t = _ctx()
    for h in request_handles:
        _lookup_request(t, h).start()


# -- groups, communicators (MPI 1.1 chapter 5) --------------------------------

def mpi_comm_remote_group(comm) -> int:
    rt, t = _ctx()
    c = t.comms.lookup(comm)
    c._require_inter()
    return t.groups.register(c.remote_group)


def mpi_errhandler_set(comm, errhandler) -> None:
    rt, t = _ctx()
    t.errhandlers.lookup(errhandler)  # validate
    t.comms.lookup(comm).errhandler_handle = errhandler


def mpi_errhandler_get(comm) -> int:
    # no _ctx(): the OO layer's _guard consults this while an exception is
    # already unwinding, so it must not raise on a poisoned job — a local
    # error under ERRORS_RETURN still surfaces as itself, not as the abort
    rt = current_runtime()
    return getattr(tables_for(rt).comms.lookup(comm), "errhandler_handle",
                   H.ERRORS_ARE_FATAL)


def mpi_request_errhandler(request: int) -> int:
    """Error handler of the communicator a request belongs to (MPI's
    rule; the OO layer routes Wait/Test failures through it).  Never
    raises and skips the poisoned-job check: it runs while an exception
    is already unwinding."""
    rt = try_current_runtime()
    if rt is None or request == H.REQUEST_NULL:
        return H.ERRORS_ARE_FATAL
    try:
        req = tables_for(rt).requests.lookup(request)
    except MPIException:
        return H.ERRORS_ARE_FATAL
    comm = getattr(req, "comm", None) or getattr(req, "source_comm", None)
    return getattr(comm, "errhandler_handle", H.ERRORS_ARE_FATAL)


def mpi_group_rank(group) -> int:
    rt, t = _ctx()
    return t.groups.lookup(group).rank_of_world(rt.world_rank)


# -- virtual topologies (MPI 1.1 chapter 6) -----------------------------------

def mpi_cart_get(comm) -> tuple[list[int], list[bool], list[int]]:
    c = _ctx()[1].comms.lookup(comm)
    topo = c._require_cart()
    return list(topo.dims), list(topo.periods), topo.coords_of(c.rank)


def mpi_cart_shift(comm, direction, disp) -> tuple[int, int]:
    c = _ctx()[1].comms.lookup(comm)
    return c._require_cart().shift(c.rank, direction, disp)


def mpi_cart_map(comm, dims, periods) -> int:
    c = _ctx()[1].comms.lookup(comm)
    topo = _topology.CartTopology(dims, periods)
    return c.rank if c.rank < topo.size else UNDEFINED


def mpi_graph_map(comm, index, edges) -> int:
    c = _ctx()[1].comms.lookup(comm)
    topo = _topology.GraphTopology(index, edges)
    return c.rank if c.rank < topo.nnodes else UNDEFINED


def mpi_graphdims_get(comm) -> tuple[int, int]:
    topo = _ctx()[1].comms.lookup(comm)._require_graph()
    return topo.nnodes, topo.nedges


def mpi_graph_get(comm) -> tuple[list[int], list[int]]:
    topo = _ctx()[1].comms.lookup(comm)._require_graph()
    return list(topo.index), list(topo.edges)


# -- derived datatypes (MPI 1.1 §3.12) ----------------------------------------

def mpi_type_struct(blocklengths, byte_displacements, types) -> int:
    rt, t = _ctx()
    return t.datatypes.register(
        _derived.struct(blocklengths, byte_displacements,
                        [t.datatypes.lookup(h) for h in types]))


# -- the regular stubs, compiled from their rows ------------------------------

#: what the generated text names beyond this module's own helpers
_PRELUDE = """\
from repro import errors
from repro.errors import (MPIException, ERR_COMM, ERR_GROUP, ERR_OP,
                          ERR_REQUEST, ERR_TYPE)
from repro.datatypes import derived as _derived, packing as _packing
from repro.jni import handles as H
from repro.runtime import reduce_ops as _reduce_ops, topology as _topology
from repro.runtime.communicator import KEYVALS
from repro.runtime.engine import current_runtime
from repro.runtime.envelope import (MODE_BUFFERED, MODE_READY,
                                    MODE_STANDARD, MODE_SYNCHRONOUS)
from repro.runtime.collective import (
    allgather as _allgather, allreduce as _allreduce, alltoall as _alltoall,
    barrier as _barrier, bcast as _bcast, gather as _gather,
    reduce as _reduce, reduce_scatter as _reduce_scatter, scan as _scan,
    scatter as _scatter)
"""

#: handle role -> (its space in the rank's HandleTable, the error class
#: of an attempt to free a predefined handle of it)
_SPACES = {"comm": ("comms", "ERR_COMM"), "dtype": ("datatypes", "ERR_TYPE"),
           "op": ("ops", "ERR_OP"), "group": ("groups", "ERR_GROUP"),
           "request": ("requests", "ERR_REQUEST"),
           "errh": ("errhandlers", None)}


def _stub_source(call: Call) -> str:
    """Source text of one regular stub: the context by the row's rule,
    one lookup per handle parameter, the one call, the result wrap."""
    out = [f"def {call.stub}({', '.join(p.decl for p in call.params)}):",
           f'    """{call.doc}"""']
    if call.ctx == "check":
        out.append("    rt, t = _ctx()")
    elif call.ctx == "rt":
        out.append("    rt = current_runtime()")
    args = []
    for p in call.params:
        if p.role not in HANDLE_ROLES:
            args.append(p.name)
            continue
        look = f"_lookup_request(t, {p.name})" if p.role == "request" \
            else f"t.{_SPACES[p.role][0]}.lookup({p.name})"
        out.append(f"    {p.name}_ = {look}")
        args.append(p.name + "_")
    target, _, extra = (call.target or "").partition("|")
    if extra:
        args.append(extra)
    if target.startswith("="):
        expr = args[0] + target[1:]
    elif target.startswith("."):
        expr = f"{args[0]}{target}({', '.join(args[1:])})"
    else:
        expr = f"{target}({', '.join(args)})"
    if call.result == "none":
        out.append(f"    {expr}")
    elif call.result == "value":
        out.append(f"    return {expr}")
    elif call.result == "status":
        out.append(f"    return _status_from_request({expr}, {args[0]})")
    elif call.result == "free":
        handle = call.params[0]
        space, err = _SPACES[handle.role]
        out += [f"    if {handle.name} < H._FIRST_DYNAMIC_HANDLE:",
                f"        raise MPIException({err}, f'cannot free "
                f"predefined {space[:-1]} handle {{{handle.name}}}')"]
        if target != "release":
            out.append(f"    {expr}")
        out.append(f"    t.{space}.release({handle.name})")
    else:       # request, new_<role>, maybe_comm: register in that space
        space = _SPACES[call.result.split("_")[-1]][0]
        out.append(f"    out = {expr}")
        if call.result == "request":
            # where status translation, mpi_cancel and the errhandler
            # getter find the communicator (a CollRequestImpl ignores it)
            out.append(f"    out.source_comm = {args[0]}")
        if call.result == "maybe_comm":
            out.append(f"    return H.COMM_NULL if out is None "
                       f"else t.{space}.register(out)")
        else:
            out.append(f"    return t.{space}.register(out)")
    return "\n".join(out) + "\n"


_GENERATED_FILE = "<repro.jni.capi stubs generated from repro.jni.spec>"
GENERATED = _PRELUDE + "".join("\n\n" + _stub_source(c)
                               for c in CALLS.values()
                               if c.target is not None)
exec(compile(GENERATED, _GENERATED_FILE, "exec"), globals())
linecache.cache[_GENERATED_FILE] = (       # mtime None: never evicted
    len(GENERATED), None, GENERATED.splitlines(True), _GENERATED_FILE)


def _check_surface() -> None:
    """Rows and stubs are one set; a stub takes what its row states."""
    stubs = {n: f for n, f in globals().items() if n.startswith("mpi_")}
    rows = {c.stub: c for c in CALLS.values()}
    if stubs.keys() != rows.keys():
        raise ImportError(f"capi stubs and repro.jni.spec rows disagree: "
                          f"{sorted(stubs.keys() ^ rows.keys())}")
    for name, call in rows.items():
        code = stubs[name].__code__
        got = code.co_varnames[:code.co_argcount + bool(code.co_flags & 4)]
        if got != tuple(p.name for p in call.params):
            raise ImportError(f"{name}{got} disagrees with its row")


_check_surface()
