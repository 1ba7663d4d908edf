"""The MPI 1.1 surface, stated once: one row per ``capi.mpi_*`` entry point.

Pure data — nothing here imports the runtime.  :mod:`repro.jni.capi`
compiles its regular stubs from these rows; the sanitizer's collective
check, the verifier's models and completion rules and the profiler's
names read them.  A new MPI call is a row plus its ``mpijava`` member.

A row of the table is ``name  parameters  result  target`` under an
``@ class context [completion]`` header:

parameters
    Today's names in today's order (``()`` for none; ``$X`` expands a
    shared list).  A handle parameter is tagged with its role —
    ``datatype:dtype`` — unless its name is the role; ``dtypes`` and
    ``requests`` are lists of handles.  Any other parameter's role is its
    own name (``buf offset count root tag`` …).
result
    ``none`` | ``value`` (returned as is) | ``status`` (of the returned
    request) | ``request`` | ``new_comm`` | ``maybe_comm`` (``COMM_NULL``
    for ``None``) | ``new_group`` | ``new_dtype`` | ``new_op`` (registered
    in that handle space) | ``free`` (validate, refuse a predefined
    handle, free, release).
target
    What the stub calls once its handles are unwrapped: ``.method`` (or
    ``.chain().method``) of the first handle argument, ``|NAME`` appending
    a constant argument; ``=.attr``, a property of it; ``pkg.function``,
    given every argument; on ``free`` rows ``.free``, or ``release`` where
    the object has no free semantics.  ``(hand)`` = written out in capi.
class
    ``p2p.send`` | ``p2p.recv`` | ``p2p.sendrecv`` | ``p2p.init``
    (persistent) | ``coll`` (with its completion rule: who must have
    arrived before a rank may leave) | ``wait`` | ``mgmt`` (collective
    communicator management) | ``local`` (no communication, no matching).
context
    ``check`` = the rank's runtime, failing fast on a poisoned job;
    ``rt`` = the runtime without that check; ``none`` = no runtime (the
    error-handler getters run while an exception is already unwinding
    and must not turn it into the job's abort).

``python -m repro.jni.spec --dump`` prints the module ``capi`` compiles.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import NamedTuple, Optional

HANDLE_ROLES = ("comm", "dtype", "op", "group", "request", "errh")
LIST_ROLES = {"dtypes": "dtype", "requests": "request"}
RESULTS = ("none", "value", "status", "request", "new_comm", "maybe_comm",
           "new_group", "new_dtype", "new_op", "free")
CONTEXTS = ("check", "rt", "none")
COMPLETIONS = ("all", "root_waits_all", "all_wait_root")


class Param(NamedTuple):
    name: str
    role: str
    #: the parameter as declared (``args=None``, ``*args``)
    decl: str


@dataclass(frozen=True)
class Call:
    name: str
    params: tuple[Param, ...]
    result: str
    target: Optional[str]
    ctx: str
    cls: str
    completion: Optional[str]
    doc: str
    #: the ``capi`` function
    stub: str
    #: the name profilers, the sanitizer and the verifier see ("Send")
    oo_name: str

    def index(self, name: str) -> Optional[int]:
        """Position of the parameter called ``name`` (None: no such)."""
        return next((i for i, p in enumerate(self.params)
                     if p.name == name), None)

    def first(self, role: str) -> Optional[int]:
        """Position of the first parameter with ``role`` (None: none)."""
        return next((i for i, p in enumerate(self.params)
                     if p.role == role), None)

    @property
    def blocking(self) -> bool:
        return self.result != "request"


_SHARED = {
    "MSG": "comm buf offset count datatype:dtype",
    "SEND": "sendbuf soffset scount sdtype:dtype",
    "RECV": "recvbuf roffset rcount rdtype:dtype",
    "RECVV": "recvbuf roffset rcounts displs rdtype:dtype",
    "RED": "comm sendbuf soffset recvbuf roffset count datatype:dtype op",
    "PAIR": "group1:group group2:group",
    "REQS": "request_handles:requests",
}

_TABLE = """
# -- environment management (MPI 1.1 chapter 7) ------------------------------
@ local none
init                    args=None                none        (hand)
initialized             ()                       value       (hand)
finalized               ()                       value       (hand)
get_version             ()                       value       (hand)
error_string            code                     value       errors.error_string
error_class             code                     value       errors.error_class
pcontrol                level *args              none        (hand)
@ local rt
finalize                ()                       none        (hand)
wtime                   ()                       value       rt.wtime
wtick                   ()                       value       rt.wtick
get_processor_name      ()                       value       rt.processor_name
@ local check
abort                   comm errorcode           none        (hand)
buffer_attach           nbytes                   none        rt.bsend_pool.attach
buffer_detach           ()                       value       rt.bsend_pool.detach
# -- point-to-point (chapter 3) ----------------------------------------------
@ p2p.send check
send                    $MSG dest tag            none        .send|MODE_STANDARD
bsend                   $MSG dest tag            none        .send|MODE_BUFFERED
ssend                   $MSG dest tag            none        .send|MODE_SYNCHRONOUS
rsend                   $MSG dest tag            none        .send|MODE_READY
isend                   $MSG dest tag            request     .isend|MODE_STANDARD
ibsend                  $MSG dest tag            request     .isend|MODE_BUFFERED
issend                  $MSG dest tag            request     .isend|MODE_SYNCHRONOUS
irsend                  $MSG dest tag            request     .isend|MODE_READY
@ p2p.recv check
recv                    $MSG source tag          status      .recv
irecv                   $MSG source tag          request     .irecv
probe                   comm source tag          value       (hand)
iprobe                  comm source tag          value       (hand)
@ p2p.sendrecv check
sendrecv                comm $SEND dest stag $RECV source rtag  status      .sendrecv
sendrecv_replace        $MSG dest stag source rtag  status      .sendrecv_replace
@ p2p.init check
send_init               $MSG dest tag            request     .send_init|MODE_STANDARD
bsend_init              $MSG dest tag            request     .send_init|MODE_BUFFERED
ssend_init              $MSG dest tag            request     .send_init|MODE_SYNCHRONOUS
rsend_init              $MSG dest tag            request     .send_init|MODE_READY
recv_init               $MSG source tag          request     .recv_init
start                   request                  none        .start
startall                $REQS                    none        (hand)
@ wait check
wait                    request                  value       (hand)
test                    request                  value       (hand)
waitany                 $REQS                    value       (hand)
testany                 $REQS                    value       (hand)
waitall                 $REQS                    value       (hand)
testall                 $REQS                    value       (hand)
waitsome                $REQS                    value       (hand)
testsome                $REQS                    value       (hand)
@ local check
cancel                  request                  none        (hand)
request_free            request                  free        release
get_count               status datatype:dtype    value       (hand)
get_elements            status datatype:dtype    value       (hand)
@ local none
test_cancelled          status                   value       (hand)
# -- collectives (chapter 4; the i-rows are schedule-based, libNBC-style) ----
@ coll check all
barrier                 comm                     none        _barrier.barrier
ibarrier                comm                     request     _barrier.ibarrier
allgather               comm $SEND $RECV         none        _allgather.allgather
iallgather              comm $SEND $RECV         request     _allgather.iallgather
allgatherv              comm $SEND $RECVV        none        _allgather.allgatherv
alltoall                comm $SEND $RECV         none        _alltoall.alltoall
ialltoall               comm $SEND $RECV         request     _alltoall.ialltoall
alltoallv               comm sendbuf soffset scounts sdispls sdtype:dtype recvbuf roffset rcounts rdispls rdtype:dtype  none        _alltoall.alltoallv
allreduce               $RED                     none        _allreduce.allreduce
iallreduce              $RED                     request     _allreduce.iallreduce
reduce_scatter          comm sendbuf soffset recvbuf roffset recvcounts datatype:dtype op  none        _reduce_scatter.reduce_scatter
scan                    $RED                     none        _scan.scan
@ coll check root_waits_all
gather                  comm $SEND $RECV root    none        _gather.gather
igather                 comm $SEND $RECV root    request     _gather.igather
gatherv                 comm $SEND $RECVV root   none        _gather.gatherv
reduce                  $RED root                none        _reduce.reduce
ireduce                 $RED root                request     _reduce.ireduce
@ coll check all_wait_root
bcast                   $MSG root                none        _bcast.bcast
ibcast                  $MSG root                request     _bcast.ibcast
scatter                 comm $SEND $RECV root    none        _scatter.scatter
iscatter                comm $SEND $RECV root    request     _scatter.iscatter
scatterv                comm sendbuf soffset scounts displs sdtype:dtype $RECV root  none        _scatter.scatterv
@ local check
op_create               function commute         new_op      _reduce_ops.make_user_op
op_free                 op                       free        .free
# -- groups, communicators (chapter 5) ---------------------------------------
comm_size               comm                     value       =.size
comm_rank               comm                     value       =.rank
comm_compare            comm1:comm comm2:comm    value       .compare
comm_group              comm                     new_group   =.group
comm_remote_group       comm                     new_group   (hand)
comm_remote_size        comm                     value       .remote_size
comm_test_inter         comm                     value       =.is_inter
comm_revoke             comm                     none        .revoke
comm_is_revoked         comm                     value       .is_revoked
attr_put                comm keyval value        none        .attr_put
attr_get                comm keyval              value       .attr_get
attr_delete             comm keyval              none        .attr_delete
errhandler_set          comm errhandler:errh     none        (hand)
@ mgmt check
comm_dup                comm                     new_comm    .dup
comm_create             comm group               maybe_comm  .create
comm_split              comm color key           maybe_comm  .split
comm_free               comm                     free        .free
comm_shrink             comm                     new_comm    .shrink
comm_agree              comm flag                value       .agree
intercomm_create        local_comm:comm local_leader peer_comm:comm remote_leader tag  new_comm    .create_intercomm
intercomm_merge         intercomm:comm high      new_comm    .merge
@ local none
keyval_create           copy_fn delete_fn extra_state  value       KEYVALS.create
keyval_free             keyval                   none        KEYVALS.free
request_errhandler      request                  value       (hand)
dims_create             nnodes dims              value       _topology.dims_create
@ local rt
errhandler_get          comm                     value       (hand)
@ local check
group_size              group                    value       =.size
group_rank              group                    value       (hand)
group_translate_ranks   group1:group ranks group2:group  value       .translate_ranks
group_compare           $PAIR                    value       .compare
group_union             $PAIR                    new_group   .union
group_intersection      $PAIR                    new_group   .intersection
group_difference        $PAIR                    new_group   .difference
group_incl              group ranks              new_group   .incl
group_excl              group ranks              new_group   .excl
group_range_incl        group ranges             new_group   .range_incl
group_range_excl        group ranges             new_group   .range_excl
group_free              group                    free        release
# -- virtual topologies (chapter 6) ------------------------------------------
@ mgmt check
cart_create             comm dims periods reorder  maybe_comm  .cart_create
graph_create            comm index edges reorder  maybe_comm  .graph_create
cart_sub                comm remain_dims         maybe_comm  .cart_sub
@ local check
topo_test               comm                     value       .topo_test
cartdim_get             comm                     value       =._require_cart().ndims
cart_get                comm                     value       (hand)
cart_rank               comm coords              value       ._require_cart().rank_of
cart_coords             comm rank                value       ._require_cart().coords_of
cart_shift              comm direction disp      value       (hand)
cart_map                comm dims periods        value       (hand)
graph_map               comm index edges         value       (hand)
graphdims_get           comm                     value       (hand)
graph_get               comm                     value       (hand)
graph_neighbors_count   comm rank                value       ._require_graph().neighbours_count
graph_neighbors         comm rank                value       ._require_graph().neighbours
# -- derived datatypes (§3.12) -----------------------------------------------
type_contiguous         count oldtype:dtype      new_dtype   _derived.contiguous
type_vector             count blocklength stride oldtype:dtype  new_dtype   _derived.vector
type_hvector            count blocklength stride_bytes oldtype:dtype  new_dtype   _derived.hvector
type_indexed            blocklengths displacements oldtype:dtype  new_dtype   _derived.indexed
type_hindexed           blocklengths byte_displacements oldtype:dtype  new_dtype   _derived.hindexed
type_struct             blocklengths byte_displacements types:dtypes  new_dtype   (hand)
type_commit             datatype:dtype           none        .commit
type_free               datatype:dtype           free        .free
type_extent             datatype:dtype           value       .extent_bytes
type_size               datatype:dtype           value       .size_bytes
type_lb                 datatype:dtype           value       .lb_bytes
type_ub                 datatype:dtype           value       .ub_bytes
pack_size               incount datatype:dtype   value       _packing.pack_size
pack                    inbuf offset incount datatype:dtype outbuf position  value       _packing.pack
unpack                  inbuf position outbuf offset outcount datatype:dtype  value       _packing.unpack
"""

#: docstrings of the generated stubs that have more to say than their name
_DOCS = {
    "comm_revoke": "``MPIX_Comm_revoke``: poison this communicator (only "
                   "it) on every member, reliably, not collectively.",
    "comm_shrink": "``MPIX_Comm_shrink``: survivors agree on a new "
                   "communicator excluding every failed rank.",
    "comm_agree": "``MPIX_Comm_agree``: the bitwise AND of every live "
                  "member's flag, identical on all survivors.",
}

#: short name ("send") -> row; a profiler's "Send" is ``CALLS[name.lower()]``
CALLS: dict[str, Call] = {}


def _params(text: str) -> tuple[Param, ...]:
    out = []
    for word in text.strip("()").split():
        for decl in _SHARED[word[1:]].split() if word[0] == "$" else [word]:
            decl, _, role = decl.partition(":")
            if role and role not in HANDLE_ROLES and role not in LIST_ROLES:
                raise ValueError(f"unknown role in {decl!r}:{role}")
            name = decl.lstrip("*").partition("=")[0]
            out.append(Param(name, role or name, decl))
    return tuple(out)


def _load() -> None:
    cls, ctx, completion = "", "", None
    for line in _TABLE.splitlines():
        if not line or line[0] == "#":
            continue
        if line[0] == "@":
            _, cls, ctx, *rule = line.split()
            completion = rule[0] if rule else None
            continue
        name, params, result, target = re.split(r"\s{2,}", line)
        if name in CALLS or result not in RESULTS or ctx not in CONTEXTS \
                or completion not in (None,) + COMPLETIONS:
            raise ValueError(f"bad or duplicate row {name!r}")
        oo_name = name.capitalize()
        CALLS[name] = Call(
            name, _params(params), result,
            None if target == "(hand)" else target, ctx, cls, completion,
            _DOCS.get(name) or f"``MPI_{oo_name}`` (row ``{name}`` of "
                               f":mod:`repro.jni.spec`).",
            "mpi_" + name, oo_name)


_load()


def collectives(completion: str) -> frozenset[str]:
    """OO names of the blocking data collectives with this completion
    rule (a nonblocking one is recorded under its blocking name)."""
    return frozenset(c.oo_name for c in CALLS.values()
                     if c.completion == completion and c.blocking)


if __name__ == "__main__":
    import sys
    from repro.jni import capi
    if sys.argv[1:] != ["--dump"]:
        sys.exit("usage: python -m repro.jni.spec --dump")
    sys.stdout.write("# generated by repro.jni.capi from repro.jni.spec\n"
                     "from repro.jni.capi import (_ctx, _lookup_request,\n"
                     "                            _status_from_request)\n"
                     + capi.GENERATED)
