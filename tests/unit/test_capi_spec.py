"""The MPI surface table (``repro.jni.spec``) and the stubs compiled from it.

What the deleted ``api-drift`` lint rule checked after the fact is checked
here against the table, together with what the table newly promises:
uniform handle validation, the per-stub context rule, and that the
positions the sanitizer and the verifier used to count by hand fall out
of the rows.
"""

import ast
import builtins
import inspect
import traceback
from pathlib import Path

import pytest

import repro.jni.spec as spec_module
from repro import mpirun
from repro.check import protocol
from repro.errors import AbortException, MPIException, ERR_ARG
from repro.jni import capi, handles as H
from repro.jni.spec import CALLS, HANDLE_ROLES, LIST_ROLES
from repro.runtime.engine import (RankRuntime, Universe, bind_thread,
                                  unbind_thread)

SRC = Path(spec_module.__file__).resolve().parents[1]

#: ``inspect.signature`` of every ``capi.mpi_*`` at 53029b6, before the
#: stubs were compiled from rows: names, order, arity
GOLDEN_SIGNATURES = """\
mpi_init(args=None)
mpi_initialized()
mpi_finalize()
mpi_finalized()
mpi_abort(comm, errorcode)
mpi_wtime()
mpi_wtick()
mpi_get_processor_name()
mpi_get_version()
mpi_error_string(code)
mpi_error_class(code)
mpi_pcontrol(level, *args)
mpi_buffer_attach(nbytes)
mpi_buffer_detach()
mpi_send(comm, buf, offset, count, datatype, dest, tag)
mpi_bsend(comm, buf, offset, count, datatype, dest, tag)
mpi_ssend(comm, buf, offset, count, datatype, dest, tag)
mpi_rsend(comm, buf, offset, count, datatype, dest, tag)
mpi_recv(comm, buf, offset, count, datatype, source, tag)
mpi_isend(comm, buf, offset, count, datatype, dest, tag)
mpi_ibsend(comm, buf, offset, count, datatype, dest, tag)
mpi_issend(comm, buf, offset, count, datatype, dest, tag)
mpi_irsend(comm, buf, offset, count, datatype, dest, tag)
mpi_irecv(comm, buf, offset, count, datatype, source, tag)
mpi_wait(request)
mpi_test(request)
mpi_waitany(request_handles)
mpi_testany(request_handles)
mpi_waitall(request_handles)
mpi_testall(request_handles)
mpi_waitsome(request_handles)
mpi_testsome(request_handles)
mpi_probe(comm, source, tag)
mpi_iprobe(comm, source, tag)
mpi_cancel(request)
mpi_test_cancelled(status)
mpi_request_free(request)
mpi_get_count(status, datatype)
mpi_get_elements(status, datatype)
mpi_send_init(comm, buf, offset, count, datatype, dest, tag)
mpi_bsend_init(comm, buf, offset, count, datatype, dest, tag)
mpi_ssend_init(comm, buf, offset, count, datatype, dest, tag)
mpi_rsend_init(comm, buf, offset, count, datatype, dest, tag)
mpi_recv_init(comm, buf, offset, count, datatype, source, tag)
mpi_start(request)
mpi_startall(request_handles)
mpi_sendrecv(comm, sendbuf, soffset, scount, sdtype, dest, stag, recvbuf, roffset, rcount, rdtype, source, rtag)
mpi_sendrecv_replace(comm, buf, offset, count, datatype, dest, stag, source, rtag)
mpi_barrier(comm)
mpi_bcast(comm, buf, offset, count, datatype, root)
mpi_gather(comm, sendbuf, soffset, scount, sdtype, recvbuf, roffset, rcount, rdtype, root)
mpi_gatherv(comm, sendbuf, soffset, scount, sdtype, recvbuf, roffset, rcounts, displs, rdtype, root)
mpi_scatter(comm, sendbuf, soffset, scount, sdtype, recvbuf, roffset, rcount, rdtype, root)
mpi_scatterv(comm, sendbuf, soffset, scounts, displs, sdtype, recvbuf, roffset, rcount, rdtype, root)
mpi_allgather(comm, sendbuf, soffset, scount, sdtype, recvbuf, roffset, rcount, rdtype)
mpi_allgatherv(comm, sendbuf, soffset, scount, sdtype, recvbuf, roffset, rcounts, displs, rdtype)
mpi_alltoall(comm, sendbuf, soffset, scount, sdtype, recvbuf, roffset, rcount, rdtype)
mpi_alltoallv(comm, sendbuf, soffset, scounts, sdispls, sdtype, recvbuf, roffset, rcounts, rdispls, rdtype)
mpi_reduce(comm, sendbuf, soffset, recvbuf, roffset, count, datatype, op, root)
mpi_allreduce(comm, sendbuf, soffset, recvbuf, roffset, count, datatype, op)
mpi_reduce_scatter(comm, sendbuf, soffset, recvbuf, roffset, recvcounts, datatype, op)
mpi_scan(comm, sendbuf, soffset, recvbuf, roffset, count, datatype, op)
mpi_ibarrier(comm)
mpi_ibcast(comm, buf, offset, count, datatype, root)
mpi_igather(comm, sendbuf, soffset, scount, sdtype, recvbuf, roffset, rcount, rdtype, root)
mpi_iscatter(comm, sendbuf, soffset, scount, sdtype, recvbuf, roffset, rcount, rdtype, root)
mpi_iallgather(comm, sendbuf, soffset, scount, sdtype, recvbuf, roffset, rcount, rdtype)
mpi_ialltoall(comm, sendbuf, soffset, scount, sdtype, recvbuf, roffset, rcount, rdtype)
mpi_ireduce(comm, sendbuf, soffset, recvbuf, roffset, count, datatype, op, root)
mpi_iallreduce(comm, sendbuf, soffset, recvbuf, roffset, count, datatype, op)
mpi_op_create(function, commute)
mpi_op_free(op)
mpi_comm_size(comm)
mpi_comm_rank(comm)
mpi_comm_compare(comm1, comm2)
mpi_comm_group(comm)
mpi_comm_remote_group(comm)
mpi_comm_remote_size(comm)
mpi_comm_test_inter(comm)
mpi_comm_dup(comm)
mpi_comm_create(comm, group)
mpi_comm_split(comm, color, key)
mpi_comm_free(comm)
mpi_comm_revoke(comm)
mpi_comm_is_revoked(comm)
mpi_comm_shrink(comm)
mpi_comm_agree(comm, flag)
mpi_intercomm_create(local_comm, local_leader, peer_comm, remote_leader, tag)
mpi_intercomm_merge(intercomm, high)
mpi_keyval_create(copy_fn, delete_fn, extra_state)
mpi_keyval_free(keyval)
mpi_attr_put(comm, keyval, value)
mpi_attr_get(comm, keyval)
mpi_attr_delete(comm, keyval)
mpi_errhandler_set(comm, errhandler)
mpi_errhandler_get(comm)
mpi_request_errhandler(request)
mpi_group_size(group)
mpi_group_rank(group)
mpi_group_translate_ranks(group1, ranks, group2)
mpi_group_compare(group1, group2)
mpi_group_union(group1, group2)
mpi_group_intersection(group1, group2)
mpi_group_difference(group1, group2)
mpi_group_incl(group, ranks)
mpi_group_excl(group, ranks)
mpi_group_range_incl(group, ranges)
mpi_group_range_excl(group, ranges)
mpi_group_free(group)
mpi_dims_create(nnodes, dims)
mpi_cart_create(comm, dims, periods, reorder)
mpi_graph_create(comm, index, edges, reorder)
mpi_topo_test(comm)
mpi_cartdim_get(comm)
mpi_cart_get(comm)
mpi_cart_rank(comm, coords)
mpi_cart_coords(comm, rank)
mpi_cart_shift(comm, direction, disp)
mpi_cart_sub(comm, remain_dims)
mpi_cart_map(comm, dims, periods)
mpi_graph_map(comm, index, edges)
mpi_graphdims_get(comm)
mpi_graph_get(comm)
mpi_graph_neighbors_count(comm, rank)
mpi_graph_neighbors(comm, rank)
mpi_type_contiguous(count, oldtype)
mpi_type_vector(count, blocklength, stride, oldtype)
mpi_type_hvector(count, blocklength, stride_bytes, oldtype)
mpi_type_indexed(blocklengths, displacements, oldtype)
mpi_type_hindexed(blocklengths, byte_displacements, oldtype)
mpi_type_struct(blocklengths, byte_displacements, types)
mpi_type_commit(datatype)
mpi_type_free(datatype)
mpi_type_extent(datatype)
mpi_type_size(datatype)
mpi_type_lb(datatype)
mpi_type_ub(datatype)
mpi_pack_size(incount, datatype)
mpi_pack(inbuf, offset, incount, datatype, outbuf, position)
mpi_unpack(inbuf, position, outbuf, offset, outcount, datatype)
"""

#: the stubs that did *not* reach ``_ctx()`` (and its poisoned-job check)
#: at 53029b6
GOLDEN_UNCHECKED = {
    "init", "initialized", "finalize", "finalized", "wtime", "wtick",
    "get_processor_name", "get_version", "error_string", "error_class",
    "pcontrol", "test_cancelled", "keyval_create", "keyval_free",
    "errhandler_get", "request_errhandler", "dims_create"}

#: ``check/sanitizer._COLL_ARGS`` at 53029b6: (root, datatype) positions
#: in the capi argument tuple, counted by hand
GOLDEN_COLL_ARGS = {
    "Barrier": (None, None), "Ibarrier": (None, None),
    "Bcast": (5, 4), "Ibcast": (5, 4),
    "Gather": (9, 4), "Igather": (9, 4),
    "Gatherv": (10, 4),
    "Scatter": (9, 4), "Iscatter": (9, 4),
    "Scatterv": (10, 5),
    "Allgather": (None, 4), "Iallgather": (None, 4),
    "Allgatherv": (None, 4),
    "Alltoall": (None, 4), "Ialltoall": (None, 4),
    "Alltoallv": (None, 5),
    "Reduce": (8, 6), "Ireduce": (8, 6),
    "Allreduce": (None, 6), "Iallreduce": (None, 6),
    "Reduce_scatter": (None, 6),
    "Scan": (None, 6),
}

BOGUS = 987654
VALID = {"comm": H.COMM_WORLD, "dtype": H.DT_INT, "op": H.OP_SUM,
         "group": H.GROUP_EMPTY, "errh": H.ERRORS_RETURN}


def _signature(fn) -> str:
    parts = []
    for p in inspect.signature(fn).parameters.values():
        text = "*" + p.name if p.kind == p.VAR_POSITIONAL else p.name
        if p.default is not p.empty:
            text += "=" + repr(p.default)
        parts.append(text)
    return f"{fn.__name__}({', '.join(parts)})"


def _stubs() -> dict:
    return {n: f for n, f in vars(capi).items() if n.startswith("mpi_")}


def _generated(fn) -> bool:
    return fn.__code__.co_filename == capi._GENERATED_FILE


# -- (i) signature freeze ------------------------------------------------------

def test_every_signature_is_what_it_was():
    golden = GOLDEN_SIGNATURES.splitlines()
    assert len(golden) == 140
    assert sorted(_signature(f) for f in _stubs().values()) == sorted(golden)


# -- (ii) rows, stubs and the OO layer are one set ------------------------------

def test_every_row_has_a_stub_and_every_stub_a_row():
    stubs = _stubs()
    assert {c.stub for c in CALLS.values()} == set(stubs)
    assert len(stubs) == 140
    compiled = [c for c in CALLS.values() if _generated(stubs[c.stub])]
    assert {c.name for c in compiled} == \
        {c.name for c in CALLS.values() if c.target is not None}
    assert len(compiled) >= 100


def test_a_stub_is_a_plain_function_under_its_own_name():
    """No wrapper, decorator or ``*args`` dispatcher between a caller and
    a stub body; ``__name__`` feeds ``profiler.dispatch`` and
    ``guarded_call``'s ERR_OTHER message."""
    for call in CALLS.values():
        fn = getattr(capi, call.stub)
        assert inspect.isfunction(fn) and fn.__name__ == call.stub
        assert fn.__module__ == "repro.jni.capi"
        assert not hasattr(fn, "__wrapped__") and fn.__closure__ is None
        assert fn.__doc__ or not _generated(fn)
        if _generated(fn):
            assert fn.__code__.co_argcount == len(call.params)
            assert not fn.__code__.co_flags & (inspect.CO_VARARGS
                                               | inspect.CO_VARKEYWORDS)


def test_a_disagreeing_hand_written_stub_fails_the_import(monkeypatch):
    monkeypatch.setitem(vars(capi), "mpi_abort", lambda comm: None)
    with pytest.raises(ImportError, match="mpi_abort"):
        capi._check_surface()
    monkeypatch.setitem(vars(capi), "mpi_teleport", lambda: None)
    with pytest.raises(ImportError, match="mpi_teleport"):
        capi._check_surface()


def _mpijava_members():
    """(class, member, is_static, parameter names, stubs referenced)."""
    for path in sorted((SRC / "mpijava").glob("*.py")):
        for cls in ast.parse(path.read_text()).body:
            if not isinstance(cls, ast.ClassDef):
                continue
            for fn in cls.body:
                if not isinstance(fn, ast.FunctionDef):
                    continue
                refs = {n.attr for n in ast.walk(fn)
                        if isinstance(n, ast.Attribute)
                        and isinstance(n.value, ast.Name)
                        and n.value.id == "capi"
                        and n.attr.startswith("mpi_")}
                static = any(isinstance(d, ast.Name)
                             and d.id == "staticmethod"
                             for d in fn.decorator_list)
                names = [a.arg for a in fn.args.args]
                if fn.args.vararg:
                    names.append(fn.args.vararg.arg)
                yield cls.name, fn.name, static, names, refs


def test_the_oo_layer_and_the_table_name_the_same_stubs():
    """All of what ``api-drift`` checked: every ``capi.mpi_*`` the OO layer
    references exists, and no row is dead surface."""
    referenced = set().union(*(m[4] for m in _mpijava_members()))
    assert referenced == {c.stub for c in CALLS.values()}


#: what the receiver of a member is called in its stub's row
RECEIVER_ROLE = {"Datatype": "dtype", "Group": "group", "Op": "op",
                 "Request": "request", "Prequest": "request",
                 "Status": "status", "MPI": None}
#: members whose parameters are OO objects the stub takes as a handle list
LISTS_OF_OBJECTS = {"Waitany", "Testany", "Waitall", "Testall", "Waitsome",
                    "Testsome", "Startall"}


def test_member_parameter_names_are_the_rows():
    checked = 0
    for cls, member, static, names, refs in _mpijava_members():
        # the guards consult the error-handler getters beside the one
        # stub the member is about
        refs = refs - {"mpi_errhandler_get", "mpi_request_errhandler"} \
            or refs
        if len(refs) != 1 or member.startswith("_") \
                or member in LISTS_OF_OBJECTS:
            continue
        call = CALLS[refs.pop()[4:]]
        want = [p.name for p in call.params]
        if not static:
            names = names[1:]
            at = call.first(RECEIVER_ROLE.get(cls, "comm"))
            if at is not None:
                del want[at]
        assert names == want, f"{cls}.{member} vs row {call.name}"
        checked += 1
    assert checked >= 120


def test_the_table_imports_nothing_from_the_runtime():
    tree = ast.parse(Path(spec_module.__file__).read_text())
    imported = {a.name for n in ast.walk(tree) if isinstance(n, ast.Import)
                for a in n.names} | \
        {n.module for n in ast.walk(tree) if isinstance(n, ast.ImportFrom)}
    # (the --dump entry point imports capi, under __main__ only)
    assert imported <= {"__future__", "re", "sys", "dataclasses", "typing",
                        "repro.jni"}


# -- (iii) handle validation, uniform -------------------------------------------

HANDLE_CASES = [(call.name, at) for call in CALLS.values()
                for at, p in enumerate(call.params)
                if p.role in HANDLE_ROLES or p.role in LIST_ROLES]


@pytest.fixture(scope="module")
def bogus_outcomes():
    """One job: every stub called once per handle parameter with that
    handle bogus, every other handle valid and every value ``None`` —
    the lookups come first, so a ``None`` is never touched."""
    def body():
        capi.mpi_init([])
        out = {}
        for name, at in HANDLE_CASES:
            call = CALLS[name]
            args = [[BOGUS] if i == at else [] if p.role in LIST_ROLES
                    else BOGUS if i == at else VALID.get(p.role)
                    for i, p in enumerate(call.params)]
            try:
                out[name, at] = ("returned", getattr(capi, call.stub)(*args))
            except MPIException as exc:
                out[name, at] = exc.error_code
            except Exception as exc:        # touched a None argument
                out[name, at] = repr(exc)
        capi.mpi_finalize()
        return out

    return mpirun(1, body)[0]


@pytest.mark.parametrize("name,at", HANDLE_CASES, ids=[
    f"{n}-{CALLS[n].params[at].name}" for n, at in HANDLE_CASES])
def test_a_bogus_handle_raises_err_arg_and_touches_nothing(
        bogus_outcomes, name, at):
    if name == "request_errhandler":
        # the documented exception: consulted while an exception is
        # already unwinding, it answers rather than raises
        assert bogus_outcomes[name, at] == ("returned", H.ERRORS_ARE_FATAL)
    else:
        assert bogus_outcomes[name, at] == ERR_ARG


# -- (iv) the context rule (H1) -------------------------------------------------

def test_the_context_rule_is_what_it_was():
    assert {c.name for c in CALLS.values() if c.ctx != "check"} == \
        GOLDEN_UNCHECKED
    for call in CALLS.values():
        handles = any(p.role in HANDLE_ROLES for p in call.params)
        assert not (call.ctx == "none" and handles and call.target)


@pytest.fixture
def poisoned_rank():
    universe = Universe(1, transport="inproc")
    rt = RankRuntime(universe, 0)
    bind_thread(rt)
    rt.init()
    universe.poison(0, 7)
    try:
        yield rt
    finally:
        unbind_thread()
        universe.close()


def test_a_poisoned_job_is_observed_by_exactly_the_checking_stubs(
        poisoned_rank):
    """A stub that checked for a poisoned job must not stop; one that
    did not — the error-handler getters run while an exception is
    already unwinding — must not start."""
    for call in CALLS.values():
        if call.name in ("init", "finalize"):   # own the job's lifecycle
            continue
        args = [VALID.get(p.role) for p in call.params
                if not p.decl.startswith("*")]
        try:
            getattr(capi, call.stub)(*args)
            aborted = False
        except AbortException:
            aborted = True
        except Exception:
            aborted = False
        assert aborted == (call.ctx == "check"), call.name


# -- (v) what used to be counted by hand ----------------------------------------

def test_collective_positions_fall_out_of_the_rows():
    derived = {c.oo_name: (c.index("root"), c.first("dtype"))
               for c in CALLS.values() if c.cls == "coll"}
    assert derived == GOLDEN_COLL_ARGS


def test_completion_rules_are_the_verifiers():
    assert protocol._ROOT_WAITS_ALL == {"Gather", "Gatherv", "Reduce"}
    assert protocol._ALL_WAIT_ROOT == {"Bcast", "Scatter", "Scatterv"}
    # the rest of protocol's old _ALL_RANKS, minus the communicator-
    # management events the verifier's own models record
    assert spec_module.collectives("all") == {
        "Barrier", "Allreduce", "Allgather", "Allgatherv", "Alltoall",
        "Alltoallv", "Reduce_scatter", "Scan"}
    assert all((c.completion is not None) == (c.cls == "coll")
               for c in CALLS.values())


# -- (vi) the generated text is real source -------------------------------------

def test_a_traceback_through_a_generated_stub_shows_its_source():
    def body():
        capi.mpi_init([])
        try:
            capi.mpi_send(BOGUS, None, 0, 0, H.DT_INT, 0, 0)
        except MPIException:
            return traceback.format_exc()
        finally:
            capi.mpi_finalize()

    text, = mpirun(1, body)
    assert "comm_ = t.comms.lookup(comm)" in text
    assert capi._GENERATED_FILE in text
    assert "def mpi_send(comm, buf, offset, count, datatype, dest, tag):" \
        in inspect.getsource(capi.mpi_send)


def test_the_generated_module_is_lint_clean():
    """What CI's ``ruff check`` of ``--dump`` enforces, for boxes without
    ruff: every global the text loads is bound by its own prelude or is
    one of capi's three helpers, and every prelude import is used."""
    tree = ast.parse(capi.GENERATED)
    bound = {"_ctx", "_lookup_request", "_status_from_request"}
    imported = {a.asname or a.name for n in tree.body
                if isinstance(n, ast.ImportFrom) for a in n.names}
    loaded = set()
    for fn in tree.body:
        if isinstance(fn, ast.FunctionDef):
            local = {a.arg for a in fn.args.args} | {
                n.id for n in ast.walk(fn) if isinstance(n, ast.Name)
                and isinstance(n.ctx, ast.Store)}
            if fn.args.vararg:
                local.add(fn.args.vararg.arg)
            loaded |= {n.id for n in ast.walk(fn)
                       if isinstance(n, ast.Name)} - local
    assert loaded - set(dir(builtins)) <= bound | imported
    assert imported <= loaded
    assert all(len(line) == len(line.rstrip()) + 1
               for line in capi.GENERATED.splitlines(True))


# -- (H3) request results know their communicator --------------------------------

def test_request_results_carry_source_comm():
    """Status translation, ``mpi_cancel`` and ``mpi_request_errhandler``
    find the communicator on the request; the ``request`` result role
    sets it uniformly — a collective request has its own ``.comm`` and
    ignores it."""
    import numpy as np

    def body():
        capi.mpi_init([])
        t = H.tables_for(capi.current_runtime())
        world = t.comms.lookup(H.COMM_WORLD)
        buf = np.zeros(1, dtype=np.int32)
        made = {
            "isend": capi.mpi_isend(H.COMM_WORLD, buf, 0, 1, H.DT_INT, 0,
                                    0),
            "irecv": capi.mpi_irecv(H.COMM_WORLD, buf, 0, 1, H.DT_INT, 0,
                                    0),
            "send_init": capi.mpi_send_init(H.COMM_WORLD, buf, 0, 1,
                                            H.DT_INT, 0, 1),
            "recv_init": capi.mpi_recv_init(H.COMM_WORLD, buf, 0, 1,
                                            H.DT_INT, 0, 1),
            "ibarrier": capi.mpi_ibarrier(H.COMM_WORLD),
        }
        out = {k: (t.requests.lookup(h).source_comm is world,
                   capi.mpi_request_errhandler(h))
               for k, h in made.items()}
        capi.mpi_waitall([made["isend"], made["irecv"], made["ibarrier"]])
        for k in ("send_init", "recv_init"):
            capi.mpi_request_free(made[k])
        capi.mpi_finalize()
        return out

    assert mpirun(1, body) == [{k: (True, H.ERRORS_ARE_FATAL) for k in (
        "isend", "irecv", "send_init", "recv_init", "ibarrier")}]
