"""Abstract models of the mpiJava API (and friends) for the verifier.

:mod:`repro.check.symexec` interprets user code; every call that crosses
into library land — ``MPI.COMM_WORLD.Send(...)``, ``np.zeros(n)``,
``Request.Waitall(...)`` — lands here.  Each model does two jobs:

* **record** the communication event (with byte sizes, buffer spans and
  ``file:line`` anchors) on the rank's trace, and
* **return** an abstract value precise enough to keep rank-dependent
  control flow concrete — ``Rank()`` is the analyzed rank,
  ``Cartcomm.Shift`` runs the runtime's own
  :class:`~repro.runtime.topology.CartTopology` math, ``Create_dims``
  *is* :func:`~repro.runtime.topology.dims_create`.

Anything not modeled degrades to :class:`~repro.check.symexec.Unknown`
(and, for communicator methods, marks the trace inexact) so unmodeled
API surface can cause lost precision but never a false report.
"""

from __future__ import annotations

import ast
from typing import Any, Optional

from repro.jni.spec import CALLS, Call
from repro.runtime.consts import ANY_SOURCE, ANY_TAG, PROC_NULL, TAG_UB
from repro.runtime.topology import CartTopology, dims_create
from repro.check.symexec import (
    Buffer, CollEv, CommV, DatatypeV, FinalizeEv, Interpreter, ModelFn,
    ModuleV, ObjV, OpV, ProbeEv, RecvEv, RequestV, SendEv, StatusV,
    Unknown, WaitEv, is_unknown,
)

_PRIMITIVES = ("BYTE", "CHAR", "SHORT", "BOOLEAN", "INT", "LONG", "FLOAT",
               "DOUBLE", "PACKED", "SHORT2", "INT2", "LONG2", "FLOAT2",
               "DOUBLE2", "OBJECT")

_OPS = ("MAX", "MIN", "SUM", "PROD", "LAND", "LOR", "LXOR", "BAND", "BOR",
        "BXOR", "MAXLOC", "MINLOC")


def _arg(a: list, i: int, name: str = "") -> Any:
    return a[i] if i < len(a) else Unknown(name or f"arg{i}")


def _bind(call: Call, a: list) -> dict:
    """A Comm member's positional arguments by parameter name — its
    row's parameters minus the receiver; one not passed is Unknown."""
    return {p.name: _arg(a, j, p.name)
            for j, p in enumerate(call.params[1:])}


def _dtv(v: Any) -> DatatypeV:
    if isinstance(v, DatatypeV):
        return v
    return DatatypeV("?", None, None, name="?")


def _conc_rank(v: Any) -> Optional[int]:
    return v if isinstance(v, int) else None


def _status_for(src: Any, tag: Any) -> StatusV:
    s = src if isinstance(src, int) and src >= 0 else Unknown("status.source")
    t = tag if isinstance(tag, int) and tag >= 0 else Unknown("status.tag")
    return StatusV(s, t)


def _buf_parts(buf: Any, dtv: DatatypeV, offset: Any, count: Any) -> tuple:
    if isinstance(buf, Buffer):
        return buf.bid, dtv.span_for(offset, count)
    return None, None


# ---------------------------------------------------------------------------
# point-to-point
# ---------------------------------------------------------------------------

def _do_send(i: Interpreter, comm: CommV, node: ast.AST, buf, offset,
             count, datatype, dest, tag, mode: str, blocking: bool):
    dtv = _dtv(datatype)
    path, line = i.loc(node)
    if not comm.exact:
        i.trace.inexact_ctxs.add(comm.ctx)
    bid, span = _buf_parts(buf, dtv, offset, count)
    ev = SendEv(path, line, i.cond_depth > 0, ctx=comm.ctx, src=comm.rank,
                dst=dest, tag=tag, sig=dtv.signature(count),
                nbytes=dtv.bytes_for(count), mode=mode, blocking=blocking,
                bid=bid, span=span)
    i.record(ev)
    if blocking:
        return None
    req = RequestV(ev)
    ev.rid = req.rid
    i.trace.requests.append(req)
    return req


def _do_recv(i: Interpreter, comm: CommV, node: ast.AST, buf, offset,
             count, datatype, source, tag, blocking: bool):
    dtv = _dtv(datatype)
    path, line = i.loc(node)
    if not comm.exact:
        i.trace.inexact_ctxs.add(comm.ctx)
    bid, span = _buf_parts(buf, dtv, offset, count)
    ev = RecvEv(path, line, i.cond_depth > 0, ctx=comm.ctx, src=source,
                dst=comm.rank, tag=tag, sig=dtv.signature(count),
                blocking=blocking, bid=bid, span=span)
    i.record(ev)
    if isinstance(buf, list):            # MPI.OBJECT into a Python list
        for j in range(len(buf)):
            buf[j] = Unknown("received object")
    if blocking:
        return _status_for(source, tag)
    req = RequestV(ev)
    ev.rid = req.rid
    i.trace.requests.append(req)
    return req


def _p2p_model(comm: CommV, call: Call) -> ModelFn:
    """Send / receive / combined model of a ``p2p.*`` row."""
    mode = call.name.lstrip("i")                # issend -> "ssend"
    mode = "standard" if mode == "send" else mode

    def fn(i, a, k, n):
        b = _bind(call, a)
        if call.cls == "p2p.send":
            return _do_send(i, comm, n, b["buf"], b["offset"], b["count"],
                            b["datatype"], b["dest"], b["tag"], mode,
                            call.blocking)
        if call.cls == "p2p.recv":
            return _do_recv(i, comm, n, b["buf"], b["offset"], b["count"],
                            b["datatype"], b["source"], b["tag"],
                            call.blocking)
        # Sendrecv names its two windows, Sendrecv_replace shares one
        send = [b.get(x, b.get(y)) for x, y in (
            ("sendbuf", "buf"), ("soffset", "offset"), ("scount", "count"),
            ("sdtype", "datatype"))]
        recv = [b.get(x, b.get(y)) for x, y in (
            ("recvbuf", "buf"), ("roffset", "offset"), ("rcount", "count"),
            ("rdtype", "datatype"))]
        i._pair_seq += 1
        _do_send(i, comm, n, *send, b["dest"], b["stag"], "standard", True)
        i.trace.events[-1].pair = i._pair_seq
        st = _do_recv(i, comm, n, *recv, b["source"], b["rtag"], True)
        i.trace.events[-1].pair = i._pair_seq
        return st
    return ModelFn(call.oo_name, fn)


# ---------------------------------------------------------------------------
# collectives
# ---------------------------------------------------------------------------

def _do_coll(i: Interpreter, comm: CommV, node: ast.AST, name: str,
             root: Any, sig: tuple, op: Optional[str], blocking: bool,
             bufs: tuple = ()):
    path, line = i.loc(node)
    if not comm.exact:
        i.trace.inexact_ctxs.add(comm.ctx)
    ev = CollEv(path, line, i.cond_depth > 0, ctx=comm.ctx, name=name,
                root=root, sig=sig, op=op, blocking=blocking, bufs=bufs)
    i.record(ev)
    if blocking:
        return None
    req = RequestV(ev)
    ev.rid = req.rid
    i.trace.requests.append(req)
    return req


def _coll_bufs(dtv_pairs) -> tuple:
    out = []
    for buf, dtv, off, count, mode in dtv_pairs:
        if isinstance(buf, Buffer):
            out.append((buf.bid, dtv.span_for(off, count), mode))
    return tuple(out)


def _coll_model(comm: CommV, call: Call) -> ModelFn:
    """Event model of a ``coll`` row; which buffers it reads and writes
    follows from the parameters the row names."""
    blocking = call.blocking
    # a nonblocking collective is recorded under its blocking name
    name = call.oo_name if blocking else call.oo_name[1:].capitalize()

    def fn(i, a, k, n):
        b = _bind(call, a)
        root = b.get("root")
        if "displs" in b or "sdispls" in b:     # per-rank counts: opaque
            return _do_coll(i, comm, n, name, root, ("v",), None, blocking)
        if "op" in b:
            count = b["count"] if "count" in b else b["recvcounts"]
            dtv, op = _dtv(b["datatype"]), b["op"]
            bufs = _coll_bufs([(b["sendbuf"], dtv, b["soffset"], count, "r"),
                               (b["recvbuf"], dtv, b["roffset"], count, "w")])
            return _do_coll(i, comm, n, name, root, dtv.signature(count),
                            op.name if isinstance(op, OpV) else None,
                            blocking, bufs)
        if "sendbuf" in b:
            sdtv, rdtv = _dtv(b["sdtype"]), _dtv(b["rdtype"])
            sig = (sdtv.signature(b["scount"]), rdtv.signature(b["rcount"]))
            bufs = _coll_bufs(
                [(b["sendbuf"], sdtv, b["soffset"], b["scount"], "r"),
                 (b["recvbuf"], rdtv, b["roffset"], b["rcount"], "w")])
            return _do_coll(i, comm, n, name, root, sig, None, blocking,
                            bufs)
        if "buf" in b:
            dtv = _dtv(b["datatype"])
            mode = "r" if _conc_rank(root) == _conc_rank(comm.rank) else "w"
            return _do_coll(i, comm, n, name, root,
                            dtv.signature(b["count"]), None, blocking,
                            _coll_bufs([(b["buf"], dtv, b["offset"],
                                         b["count"], mode)]))
        return _do_coll(i, comm, n, name, None, (), None, blocking)
    return ModelFn(call.oo_name, fn)


# ---------------------------------------------------------------------------
# communicator attribute dispatch
# ---------------------------------------------------------------------------

def comm_attr(i: Interpreter, comm: CommV, attr: str, node: ast.AST) -> Any:
    # plain queries ---------------------------------------------------------
    if attr == "Rank":
        def rank_fn(i, a, k, n):
            if a and comm.topo is not None:
                coords = a[0]
                if isinstance(coords, (list, tuple)) and all(
                        isinstance(c, int) for c in coords):
                    return comm.topo.rank_of(coords)
                return Unknown("Cart rank")
            return comm.rank
        return ModelFn("Rank", rank_fn)
    if attr == "Size":
        return ModelFn("Size", lambda i, a, k, n: comm.size)
    if attr == "Is_null":
        return ModelFn("Is_null", lambda i, a, k, n: False)

    # probes (return a status; sends and receives follow the rows below) ----
    if attr in ("Probe", "Iprobe"):
        blocking = attr == "Probe"

        def probe_fn(i, a, k, n):
            b = _bind(CALLS[attr.lower()], a)
            source, tag = b["source"], b["tag"]
            path, line = i.loc(n)
            i.record(ProbeEv(path, line, i.cond_depth > 0, ctx=comm.ctx,
                             src=source, dst=comm.rank, tag=tag,
                             blocking=blocking))
            if blocking:
                return _status_for(source, tag)
            return Unknown("Iprobe status")
        return ModelFn(attr, probe_fn)

    # communicator management ----------------------------------------------
    if attr == "Dup":
        def dup_fn(i, a, k, n):
            ctx = i.new_ctx("dup")
            _do_coll(i, comm, n, "Dup", None, (ctx,), None, True)
            return CommV(ctx, comm.size, comm.rank, comm.topo, comm.exact)
        return ModelFn("Dup", dup_fn)
    if attr == "Free":
        return ModelFn("Free", lambda i, a, k, n: _do_coll(
            i, comm, n, "Free", None, (), None, True))
    # ULFM fault tolerance: Shrink and Agree are collectives over the
    # survivors — every live member must call them, so a rank-divergent
    # recovery path is a coll-mismatch like any other.  The shrunken
    # communicator's membership only exists at runtime (it depends on
    # which ranks died), so the result is inexact, like a Split's.
    if attr in ("Split", "Create", "Create_graph", "Create_intercomm",
                "Shrink"):
        def split_fn(i, a, k, n, attr=attr):
            ctx = i.new_ctx(attr.lower())
            _do_coll(i, comm, n, attr, None, (ctx,), None, True)
            new = CommV(ctx, Unknown("size"), Unknown("rank"), None,
                        exact=False)
            i.trace.inexact_ctxs.add(ctx)
            return new
        return ModelFn(attr, split_fn)
    if attr == "Agree":
        def agree_fn(i, a, k, n):
            _do_coll(i, comm, n, "Agree", None, ("flag",), "band", True)
            return Unknown("Agree")
        return ModelFn("Agree", agree_fn)
    if attr == "Create_cart":
        def cart_fn(i, a, k, n):
            dims, periods = _arg(a, 0, "dims"), _arg(a, 1, "periods")
            ctx = i.new_ctx("cart")
            conc = (isinstance(dims, (list, tuple))
                    and all(isinstance(d, int) for d in dims)
                    and isinstance(periods, (list, tuple))
                    and isinstance(comm.rank, int))
            sig = (ctx, tuple(dims) if conc else ("?",))
            _do_coll(i, comm, n, "Create_cart", None, sig, None, True)
            if not conc:
                new = CommV(ctx, Unknown("size"), Unknown("rank"), None,
                            exact=False)
                i.trace.inexact_ctxs.add(ctx)
                return new
            topo = CartTopology(list(dims),
                                [bool(p) and not is_unknown(p)
                                 for p in periods])
            return CommV(ctx, topo.size, comm.rank, topo, comm.exact)
        return ModelFn("Create_cart", cart_fn)

    # cartesian topology (concrete math via the runtime's own module) ------
    if comm.topo is not None and isinstance(comm.rank, int):
        topo = comm.topo
        if attr == "Shift":
            def shift_fn(i, a, k, n):
                d, disp = _arg(a, 0), _arg(a, 1)
                if isinstance(d, int) and isinstance(disp, int):
                    src, dst = topo.shift(comm.rank, d, disp)
                    return ObjV({"rank_source": src, "rank_dest": dst})
                return ObjV({"rank_source": Unknown("shift"),
                             "rank_dest": Unknown("shift")})
            return ModelFn("Shift", shift_fn)
        if attr == "Get":
            return ModelFn("Get", lambda i, a, k, n: ObjV({
                "dims": list(topo.dims), "periods": list(topo.periods),
                "coords": topo.coords_of(comm.rank)}))
        if attr == "Dim":
            return ModelFn("Dim", lambda i, a, k, n: topo.ndims)
        if attr == "Coords":
            return ModelFn("Coords", lambda i, a, k, n: (
                topo.coords_of(a[0]) if a and isinstance(a[0], int)
                else Unknown("coords")))
        if attr == "Sub":
            def sub_fn(i, a, k, n):
                remain = _arg(a, 0)
                ctx = i.new_ctx("cartsub")
                _do_coll(i, comm, n, "Sub", None, (ctx,), None, True)
                if not (isinstance(remain, (list, tuple))
                        and all(isinstance(r, (bool, int)) for r in remain)):
                    new = CommV(ctx, Unknown("size"), Unknown("rank"),
                                None, exact=False)
                    i.trace.inexact_ctxs.add(ctx)
                    return new
                color, key, kd, kp = topo.sub_keep(list(remain), comm.rank)
                sub = CartTopology(kd, kp) if kd else None
                size = sub.size if sub else 1
                return CommV(f"{ctx}:c{color}", size, key, sub, comm.exact)
            return ModelFn("Sub", sub_fn)
        if attr == "Map":
            return ModelFn("Map", lambda i, a, k, n: comm.rank)

    # everything regular: the member's row says what it is ------------------
    # (Send is row "send", Group is row "comm_group"; "send" is no member)
    call = (CALLS.get(attr.lower()) or CALLS.get("comm_" + attr.lower())) \
        if attr == attr.capitalize() else None
    if call is not None and call.cls in ("p2p.send", "p2p.recv",
                                         "p2p.sendrecv"):
        return _p2p_model(comm, call)
    if call is not None and call.cls == "coll":
        return _coll_model(comm, call)
    if call is not None and call.cls == "local":
        # neither communicates nor affects matching.  Revoke is here on
        # purpose: ULFM revocation is asynchronous, never blocks, and any
        # subset of survivors may call it — it is *not* a collective
        if call.result == "none":
            return ModelFn(attr, lambda i, a, k, n: None)
        return ModelFn(attr, lambda i, a, k, n: Unknown(f"Comm.{attr}"))

    # anything else might communicate: degrade soundly
    def unmodeled(i, a, k, n):
        i.trace.mark_inexact(f"unmodeled communicator method {attr}")
        return Unknown(f"Comm.{attr}")
    return ModelFn(attr, unmodeled)


# ---------------------------------------------------------------------------
# datatypes
# ---------------------------------------------------------------------------

def _derive(i: Interpreter, node: ast.AST, base: DatatypeV, name: str,
            units: Optional[int], extent: Optional[int]) -> DatatypeV:
    bu = base.units if isinstance(base.units, int) else None
    be = base.extent if isinstance(base.extent, int) else None
    dt = DatatypeV(
        base.base,
        units * bu if (units is not None and bu is not None) else None,
        extent * be if (extent is not None and be is not None) else None,
        derived=True, site=i.loc(node), name=f"{base.name}.{name}")
    i.trace.datatypes.append(dt)
    return dt


def datatype_attr(i: Interpreter, dt: DatatypeV, attr: str,
                  node: ast.AST) -> Any:
    if attr == "Vector":
        def fn(i, a, k, n):
            count, bl, stride = _arg(a, 0), _arg(a, 1), _arg(a, 2)
            if all(isinstance(x, int) for x in (count, bl, stride)):
                return _derive(i, n, dt, "Vector", count * bl,
                               (count - 1) * stride + bl if count > 0 else 0)
            return _derive(i, n, dt, "Vector", None, None)
        return ModelFn("Vector", fn)
    if attr == "Hvector":
        def fn(i, a, k, n):
            count, bl = _arg(a, 0), _arg(a, 1)
            units = count * bl if all(
                isinstance(x, int) for x in (count, bl)) else None
            return _derive(i, n, dt, "Hvector", units, None)
        return ModelFn("Hvector", fn)
    if attr == "Contiguous":
        def fn(i, a, k, n):
            count = _arg(a, 0)
            c = count if isinstance(count, int) else None
            return _derive(i, n, dt, "Contiguous", c, c)
        return ModelFn("Contiguous", fn)
    if attr in ("Indexed", "Hindexed"):
        def fn(i, a, k, n, attr=attr):
            bls, disps = _arg(a, 0), _arg(a, 1)
            units = extent = None
            if isinstance(bls, (list, tuple)) and all(
                    isinstance(b, int) for b in bls):
                units = sum(bls)
                if attr == "Indexed" and isinstance(disps, (list, tuple)) \
                        and all(isinstance(d, int) for d in disps) \
                        and len(disps) == len(bls) and bls:
                    extent = max(d + b for d, b in zip(disps, bls))
            return _derive(i, n, dt, attr, units, extent)
        return ModelFn(attr, fn)
    if attr == "Struct":
        def fn(i, a, k, n):
            out = DatatypeV("?", None, None, derived=True, site=i.loc(n),
                            name="Struct")
            i.trace.datatypes.append(out)
            return out
        return ModelFn("Struct", fn)
    if attr == "Commit":
        def fn(i, a, k, n):
            dt.committed = True
            return dt
        return ModelFn("Commit", fn)
    if attr == "Free":
        def fn(i, a, k, n):
            dt.freed = True
            return None
        return ModelFn("Free", fn)
    if attr == "Extent":
        return ModelFn("Extent", lambda i, a, k, n: (
            dt.extent if isinstance(dt.extent, int) else Unknown("extent")))
    if attr == "Size":
        def fn(i, a, k, n):
            eb = dt.elem_bytes
            if eb is not None and isinstance(dt.units, int):
                return dt.units * eb
            return Unknown("size")
        return ModelFn("Size", fn)
    if attr == "Lb":
        return ModelFn("Lb", lambda i, a, k, n: 0)
    if attr == "Ub":
        return ModelFn("Ub", lambda i, a, k, n: (
            dt.extent if isinstance(dt.extent, int) else Unknown("ub")))
    return ModelFn(attr, lambda i, a, k, n: Unknown(f"Datatype.{attr}"))


# ---------------------------------------------------------------------------
# requests
# ---------------------------------------------------------------------------

def _status_of(req: RequestV) -> StatusV:
    ev = req.event
    if isinstance(ev, RecvEv):
        return _status_for(ev.src, ev.tag)
    return StatusV(Unknown("status.source"), Unknown("status.tag"))


def request_attr(i: Interpreter, req: RequestV, attr: str,
                 node: ast.AST) -> Any:
    if attr in ("Wait", "Test"):
        def fn(i, a, k, n, attr=attr):
            path, line = i.loc(n)
            req.observed = True
            i.record(WaitEv(path, line, i.cond_depth > 0,
                            rids=(req.rid,), kind=attr.lower()))
            if attr == "Wait":
                return _status_of(req)
            return Unknown("Test status")
        return ModelFn(attr, fn)
    if attr in ("Cancel", "Free"):
        def fn(i, a, k, n):
            req.observed = True
            return None
        return ModelFn(attr, fn)
    if attr == "Is_null":
        return ModelFn("Is_null", lambda i, a, k, n: req.observed)
    return ModelFn(attr, lambda i, a, k, n: Unknown(f"Request.{attr}"))


def _request_list(v: Any) -> Optional[list]:
    if isinstance(v, (list, tuple)):
        return [r for r in v if isinstance(r, RequestV)]
    return None


def _request_cls() -> ModuleV:
    def multi(kind, returns):
        def fn(i, a, k, n):
            reqs = _request_list(_arg(a, 0, "requests"))
            path, line = i.loc(n)
            if reqs is None:
                i.trace.mark_inexact(f"{kind} over unknown request list")
                i.record(WaitEv(path, line, i.cond_depth > 0, rids=(),
                                kind=kind))
                return Unknown(kind)
            for r in reqs:
                r.observed = True
            i.record(WaitEv(path, line, i.cond_depth > 0,
                            rids=tuple(r.rid for r in reqs), kind=kind))
            if returns == "statuses":
                return [_status_of(r) for r in reqs]
            if returns == "status":
                return StatusV(Unknown("status.source"),
                               Unknown("status.tag"))
            return Unknown(kind)
        return ModelFn(kind, fn)

    return ModuleV("Request", {
        "Waitall": multi("waitall", "statuses"),
        "Waitany": multi("waitany", "status"),
        "Waitsome": multi("waitsome", "statuses"),
        "Testall": multi("testall", "maybe"),
        "Testany": multi("testany", "maybe"),
        "Testsome": multi("testsome", "statuses"),
    })


# ---------------------------------------------------------------------------
# the MPI static class + module tree
# ---------------------------------------------------------------------------

def _mpi_object(i: Interpreter) -> ModuleV:
    cached = i._module_cache.get("<MPI>")
    if cached is not None:
        return cached

    def finalize(i, a, k, n):
        path, line = i.loc(n)
        i.record(FinalizeEv(path, line, i.cond_depth > 0))
        i.trace.finalized = True
        return None

    def to_chars(i, a, k, n):
        s = _arg(a, 0)
        return Buffer(len(s) if isinstance(s, str) else None)

    def new_chars(i, a, k, n):
        c = _arg(a, 0)
        return Buffer(c if isinstance(c, int) else None)

    attrs: dict[str, Any] = {
        "COMM_WORLD": CommV("world", i.nprocs, i.rank),
        "COMM_SELF": CommV("self", 1, 0, exact=False),
        "COMM_NULL": None,
        "ANY_SOURCE": ANY_SOURCE, "ANY_TAG": ANY_TAG,
        "PROC_NULL": PROC_NULL, "TAG_UB": TAG_UB, "UNDEFINED": -1,
        "Init": ModelFn("Init", lambda i, a, k, n: (
            a[0] if a and isinstance(a[0], list) else [])),
        "Finalize": ModelFn("Finalize", finalize),
        "Initialized": ModelFn("Initialized", lambda i, a, k, n: True),
        "Wtime": ModelFn("Wtime", lambda i, a, k, n: Unknown("Wtime")),
        "Wtick": ModelFn("Wtick", lambda i, a, k, n: Unknown("Wtick")),
        "Get_processor_name": ModelFn(
            "Get_processor_name", lambda i, a, k, n: Unknown("host")),
        "Attach_buffer": ModelFn("Attach_buffer",
                                 lambda i, a, k, n: None),
        "Detach_buffer": ModelFn("Detach_buffer",
                                 lambda i, a, k, n: Unknown("buffer")),
        "to_chars": ModelFn("to_chars", to_chars),
        "new_chars": ModelFn("new_chars", new_chars),
        "from_chars": ModelFn("from_chars",
                              lambda i, a, k, n: Unknown("chars")),
    }
    for name in _PRIMITIVES:
        attrs[name] = DatatypeV(name, 1, 1, name=f"MPI.{name}")
    for name in _OPS:
        attrs[name] = OpV(name)
    mpi = ModuleV("MPI", attrs, permissive=True)
    i._module_cache["<MPI>"] = mpi
    return mpi


# ---------------------------------------------------------------------------
# numpy (buffers with known element counts, unknown contents)
# ---------------------------------------------------------------------------

def _shape_of(v: Any) -> Optional[tuple]:
    if isinstance(v, int):
        return (v,)
    if isinstance(v, (tuple, list)) and all(isinstance(d, int) for d in v):
        return tuple(v)
    return None


def _nelems(shape: Optional[tuple]) -> Optional[int]:
    if shape is None:
        return None
    n = 1
    for d in shape:
        n *= d
    return n


def _numpy_module(i: Interpreter) -> ModuleV:
    def alloc(i, a, k, n):
        shape = _shape_of(_arg(a, 0, "shape"))
        return Buffer(_nelems(shape), shape)

    def np_array(i, a, k, n):
        v = _arg(a, 0)
        if isinstance(v, (list, tuple)):
            return Buffer(len(v), (len(v),))
        if isinstance(v, Buffer):
            return Buffer(v.nelems, v.shape)
        return Buffer(None)

    def np_arange(i, a, k, n):
        conc = [x for x in a if isinstance(x, (int, float))]
        if len(conc) == len([x for x in a if not isinstance(x, str)]) \
                and conc:
            try:
                cnt = len(range(*[int(x) for x in conc[:3]]))
                return Buffer(cnt, (cnt,))
            except Exception:
                pass
        return Buffer(None)

    def elementwise(i, a, k, n):
        v = _arg(a, 0)
        if isinstance(v, Buffer):
            return Buffer(v.nelems, v.shape)
        return Unknown("ufunc")

    def scalar(i, a, k, n):
        return Unknown("reduction")

    def rng_alloc(i, a, k, n):
        shape = _shape_of(_arg(a, 0, "shape"))
        return Buffer(_nelems(shape), shape)

    rng = ModuleV("numpy.random.Generator", {
        "random": ModelFn("random", rng_alloc),
        "standard_normal": ModelFn("standard_normal", rng_alloc),
        "integers": ModelFn("integers", lambda i, a, k, n: (
            Buffer(_nelems(_shape_of(k.get("size", _arg(a, 2))))
                   if (k.get("size") is not None or len(a) > 2)
                   else None))),
        "uniform": ModelFn("uniform", rng_alloc),
    }, permissive=True)

    random_mod = ModuleV("numpy.random", {
        "default_rng": ModelFn("default_rng", lambda i, a, k, n: rng),
        "seed": ModelFn("seed", lambda i, a, k, n: None),
        "rand": ModelFn("rand", lambda i, a, k, n: Buffer(
            _nelems(_shape_of(tuple(a))) if a else None)),
    }, permissive=True)

    attrs: dict[str, Any] = {
        "zeros": ModelFn("zeros", alloc),
        "empty": ModelFn("empty", alloc),
        "ones": ModelFn("ones", alloc),
        "full": ModelFn("full", alloc),
        "zeros_like": ModelFn("zeros_like", elementwise),
        "empty_like": ModelFn("empty_like", elementwise),
        "array": ModelFn("array", np_array),
        "asarray": ModelFn("asarray", np_array),
        "arange": ModelFn("arange", np_arange),
        "linspace": ModelFn("linspace", lambda i, a, k, n: Buffer(
            a[2] if len(a) > 2 and isinstance(a[2], int) else None)),
        "abs": ModelFn("abs", elementwise),
        "sqrt": ModelFn("sqrt", elementwise),
        "exp": ModelFn("exp", elementwise),
        "sin": ModelFn("sin", elementwise),
        "cos": ModelFn("cos", elementwise),
        "sum": ModelFn("sum", scalar),
        "max": ModelFn("max", scalar),
        "min": ModelFn("min", scalar),
        "mean": ModelFn("mean", scalar),
        "dot": ModelFn("dot", lambda i, a, k, n: (
            Buffer(a[0].nelems, a[0].shape)
            if a and isinstance(a[0], Buffer) else Unknown("dot"))),
        "isclose": ModelFn("isclose", scalar),
        "allclose": ModelFn("allclose", scalar),
        "random": random_mod,
        "float64": "float64", "float32": "float32", "int64": "int64",
        "int32": "int32", "int16": "int16", "int8": "int8",
        "uint16": "uint16", "uint8": "uint8", "bool_": "bool_",
        "pi": 3.141592653589793,
        "nan": float("nan"), "inf": float("inf"),
    }
    return ModuleV("numpy", attrs, permissive=True)


# ---------------------------------------------------------------------------
# module resolution
# ---------------------------------------------------------------------------

def module_for(name: str, i: Interpreter) -> ModuleV:
    if name in ("numpy", "np"):
        return _numpy_module(i)
    if name == "math":
        import math
        return ModuleV("math", {n: getattr(math, n) for n in dir(math)
                                if not n.startswith("_")}, permissive=True)
    if name == "sys":
        return ModuleV("sys", {
            "argv": [Unknown("argv0")],
            "maxsize": 2 ** 63 - 1,
            "stdout": Unknown("stdout"), "stderr": Unknown("stderr"),
            "exit": ModelFn("exit", lambda i, a, k, n: Unknown("exit")),
            "path": [],
        }, permissive=True)
    if name == "repro":
        return ModuleV("repro", {
            "mpirun": ModelFn("mpirun", lambda i, a, k, n:
                              Unknown("mpirun result")),
            "procrun": ModelFn("procrun", lambda i, a, k, n:
                               Unknown("procrun result")),
            "mpijava": module_for("repro.mpijava", i),
        }, permissive=True)
    if name in ("repro.mpijava", "repro.mpijava.mpi"):
        return ModuleV(name, {"MPI": _mpi_object(i)}, permissive=True)
    if name == "repro.mpijava.cartcomm":
        def create_dims(i, a, k, n):
            nnodes, dims = _arg(a, 0), _arg(a, 1)
            if isinstance(nnodes, int) and isinstance(dims, (list, tuple)) \
                    and all(isinstance(d, int) for d in dims):
                return dims_create(nnodes, list(dims))
            return Unknown("Create_dims")
        cartcomm = ModuleV("Cartcomm", {
            "Create_dims": ModelFn("Create_dims", create_dims),
        }, permissive=True)
        return ModuleV(name, {"Cartcomm": cartcomm}, permissive=True)
    if name == "repro.mpijava.request":
        return ModuleV(name, {"Request": _request_cls()}, permissive=True)
    # everything else (os, json, repro.obs, repro.bench, user helpers
    # the loader didn't inline, ...) is a permissive stub
    return ModuleV(name, {}, permissive=True)
