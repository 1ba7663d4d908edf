"""Random nested derived types: IR run path == legacy flat-index path.

The layout IR is an *optimization*: for any committed datatype — nested
Vector/Hvector/Indexed/Struct compositions, resized extents included —
gather/scatter through the run IR, the iovec wire path and the direct
landing views must produce byte-identical results to the legacy
flat-index semantics, locally and over every backend/protocol.

Specs are plain tuples (pickleable), so the same generator drives the
in-process checks and the procs-DM round trip.
"""

import numpy as np
import pytest

from repro.datatypes import derived, packing, primitives as P
from repro.datatypes.base import DatatypeImpl
from repro.executor.runner import MPIExecutor
from repro.runtime.buffers import validate_buffer
from tests.conftest import window
from repro.runtime.engine import Universe
from repro.transport import wire
from repro.transport.inproc import InprocTransport
from repro.transport.socket_tcp import SocketTransport


@pytest.fixture
def eager_limit_guard():
    prev = wire.eager_limit()
    yield
    wire.set_eager_limit(prev)


# -- spec-driven type construction (module-level: procs-DM imports it) --------

def build_impl(spec) -> DatatypeImpl:
    kind = spec[0]
    if kind == "prim":
        return P.DOUBLE
    if kind == "contig":
        return derived.contiguous(spec[1], build_impl(spec[2]))
    if kind == "vector":
        return derived.vector(spec[1], spec[2], spec[3],
                              build_impl(spec[4]))
    if kind == "hvector":
        return derived.hvector(spec[1], spec[2], spec[3],
                               build_impl(spec[4]))
    if kind == "indexed":
        return derived.indexed(list(spec[1]), list(spec[2]),
                               build_impl(spec[3]))
    if kind == "struct":
        return derived.struct(list(spec[1]), list(spec[2]),
                              [build_impl(s) for s in spec[3]])
    if kind == "resized":
        t = build_impl(spec[2])
        # runtime-level resize: same selection, padded extent (the
        # MPI-2 Type_create_resized shape, constructible here directly)
        return DatatypeImpl(t.base, t.disp,
                            extent_elems=t.extent_elems + spec[1],
                            name=f"resized(+{spec[1]},{t.name})")
    raise ValueError(spec)


def gen_spec(rng, depth):
    """One random (bounded) nested-type spec."""
    if depth == 0:
        return ("prim",)
    kind = rng.choice(["contig", "vector", "hvector", "indexed",
                       "struct", "resized"])
    sub = gen_spec(rng, depth - 1)
    sub_extent = max(1, build_impl(sub).extent_elems)
    if kind == "contig":
        return ("contig", int(rng.integers(1, 4)), sub)
    if kind == "vector":
        blocklen = int(rng.integers(1, 4))
        stride = blocklen + int(rng.integers(0, 3))
        return ("vector", int(rng.integers(1, 5)), blocklen, stride, sub)
    if kind == "hvector":
        blocklen = int(rng.integers(1, 3))
        stride_bytes = 8 * sub_extent * (blocklen + int(rng.integers(0, 3)))
        return ("hvector", int(rng.integers(1, 4)), blocklen,
                stride_bytes, sub)
    if kind == "indexed":
        n = int(rng.integers(1, 4))
        blocklens = [int(rng.integers(1, 4)) for _ in range(n)]
        disps, at = [], 0
        for b in blocklens:
            disps.append(at)
            at += b + int(rng.integers(0, 3))
        return ("indexed", tuple(blocklens), tuple(disps), sub)
    if kind == "struct":
        b1, b2 = int(rng.integers(1, 3)), int(rng.integers(1, 3))
        gap = 8 * sub_extent * (b1 + int(rng.integers(0, 2)))
        return ("struct", (b1, b2), (0, gap), (sub, sub))
    return ("resized", int(rng.integers(0, 5)), sub)


def random_specs(seed, n, depth=2):
    rng = np.random.default_rng(seed)
    return [gen_spec(rng, depth) for _ in range(n)]


#: deterministic wire-friendly shapes: long dense runs that take the
#: iovec send and per-run direct landing (random small nests stay on
#: the dense-frame path, which is also exercised)
BIG_SPECS = (
    ("vector", 16, 1024, 1536, ("prim",)),          # 128 KiB, 8 KiB runs
    ("hvector", 8, 4096, 8 * 6144, ("prim",)),      # 256 KiB, 32 KiB runs
    ("resized", 512, ("vector", 8, 2048, 2048, ("prim",))),
    # out-of-order blocks: non-monotonic but wire-friendly, so the
    # iovec/direct-landing byte ordering is pinned for this shape too
    ("indexed", (1024, 1024, 1024), (4096, 0, 2048), ("prim",)),
)


def _roundtrip_body(specs, limit, seed):
    """Rank 0 sends each spec'd type; rank 1 lands and verifies."""
    from repro.jni import capi, handles as H
    from repro.jni.handles import tables_for
    from repro.runtime.engine import current_runtime
    from repro.transport import wire as W
    if limit is not None:
        W.set_eager_limit(limit)
    capi.mpi_init([])
    rank = capi.mpi_comm_rank(H.COMM_WORLD)
    table = tables_for(current_runtime()).datatypes
    rng = np.random.default_rng(seed)
    for i, spec in enumerate(specs):
        t = build_impl(spec)
        t.commit()
        handle = table.register(t)
        count = 2
        lo, span = window(t, count)
        size = span + lo + 8
        idx = lo + t.flat_indices(count, 0)
        payload = rng.random(len(idx))
        if rank == 0:
            buf = np.zeros(size, dtype=np.float64)
            buf[idx] = payload
            capi.mpi_send(H.COMM_WORLD, buf, lo, count, handle, 1, i)
        else:
            out = np.zeros(size, dtype=np.float64)
            st = capi.mpi_recv(H.COMM_WORLD, out, lo, count, handle, 0, i)
            assert st.count_elements == count * t.size_elems, spec
            ref = np.zeros(size, dtype=np.float64)
            ref[idx] = payload
            assert np.array_equal(out, ref), \
                f"IR wire landing diverged from flat-index path: {spec}"
        capi.mpi_barrier(H.COMM_WORLD)
    capi.mpi_finalize()
    return True


def _make_universe(backend, nprocs):
    if backend == "threads-SM":
        return Universe(nprocs, transport=InprocTransport(nprocs))
    return Universe(nprocs, transport=SocketTransport(nprocs))


def _run(backend, body, args, nprocs=2):
    if backend == "procs-DM":
        from repro.executor.procrunner import ProcExecutor
        with ProcExecutor(nprocs) as ex:
            return ex.run(body, args=args, timeout=120.0)
    with MPIExecutor(nprocs,
                     universe=_make_universe(backend, nprocs)) as ex:
        return ex.run(body, args=args)


class TestLocalEquivalence:
    """gather/scatter/pack through the IR == the flat-index reference."""

    @pytest.mark.parametrize("seed", (7, 42, 1999))
    def test_random_nested_roundtrip(self, seed):
        rng = np.random.default_rng(seed * 13)
        for spec in random_specs(seed, 20) + list(BIG_SPECS):
            t = build_impl(spec)
            t.commit()
            for count in (1, 3):
                lo, span = window(t, count)
                size = span + lo + 5
                buf = rng.random(size)
                idx = lo + t.flat_indices(count, 0)
                # gather (IR) vs fancy-index reference
                lay = validate_buffer(buf, lo, count, t)
                dense = lay.gather(buf, lo, count)
                assert np.array_equal(dense, buf[idx]), spec
                # scatter (IR) vs fancy-index reference
                out = np.zeros(size, dtype=np.float64)
                lay.scatter(out, lo, count, dense)
                ref = np.zeros(size, dtype=np.float64)
                ref[idx] = dense
                assert np.array_equal(out, ref), spec
                # Pack/Unpack ride the same IR paths
                packed = np.zeros(packing.pack_size(count, t),
                                  dtype=np.uint8)
                end = packing.pack(buf, lo, count, t, packed, 0)
                assert end == dense.nbytes, spec
                out2 = np.zeros(size, dtype=np.float64)
                packing.unpack(packed, 0, out2, lo, count, t)
                assert np.array_equal(out2, ref), spec

    @pytest.mark.parametrize("seed", (3, 11))
    def test_byte_views_match_dense_bytes(self, seed):
        for spec in random_specs(seed, 12) + list(BIG_SPECS):
            t = build_impl(spec)
            t.commit()
            lay = t.layout()
            if lay.extent_elems < 0 or t.size_elems == 0:
                continue
            count = 2
            lo, span = window(t, count)
            buf = np.random.default_rng(seed).random(span + lo)
            nelems = count * t.size_elems
            views = lay.byte_views(buf, lo, nelems)
            if views is None:
                continue
            dense = buf[lo + t.flat_indices(count, 0)]
            assert b"".join(bytes(v) for v in views) == dense.tobytes(), \
                spec


class TestWireEquivalence:
    """Send/recv of random nested types on every backend/protocol."""

    @pytest.mark.parametrize("backend", ("threads-SM", "threads-DM"))
    @pytest.mark.parametrize("limit", (1, 65536, 1 << 62))
    def test_random_nested_exchange(self, backend, limit,
                                    eager_limit_guard):
        specs = random_specs(limit % 97, 8) + list(BIG_SPECS)
        assert all(_run(backend, _roundtrip_body, (specs, limit, 5)))

    def test_random_nested_exchange_procs_dm(self, eager_limit_guard):
        # real processes: one reduced pass per protocol extreme
        specs = random_specs(23, 3) + [BIG_SPECS[0]]
        for limit in (1, 1 << 62):
            assert all(_run("procs-DM", _roundtrip_body,
                            (specs, limit, 5)))
