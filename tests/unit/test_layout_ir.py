"""Layout IR: run compilation, block gather/scatter, spans and caches."""

import numpy as np
import pytest

from repro.datatypes import derived, primitives as P
from repro.datatypes.base import DatatypeImpl
from repro.datatypes.layout import DATAPATH, _INDEX_CACHE_MAX
from repro.errors import MPIException


def ir_of(t):
    t.commit()
    return t.layout()


class TestRunCompilation:
    def test_primitive_is_one_contiguous_run(self):
        lay = P.INT.layout()
        assert lay.nruns == 1 and lay.contiguous

    def test_contiguous_derived(self):
        lay = ir_of(derived.contiguous(5, P.INT))
        assert lay.nruns == 1
        assert lay.contiguous and lay.uniform
        assert list(lay.run_lens) == [5]

    def test_vector_runs(self):
        lay = ir_of(derived.vector(3, 2, 5, P.DOUBLE))
        assert lay.nruns == 3
        assert list(lay.run_starts) == [0, 5, 10]
        assert list(lay.run_lens) == [2, 2, 2]
        assert list(lay.run_dense) == [0, 2, 4]
        assert lay.uniform and not lay.contiguous
        assert lay.run_stride == 5

    def test_irregular_indexed_not_uniform(self):
        lay = ir_of(derived.indexed([2, 1, 3], [0, 4, 8], P.INT))
        assert lay.nruns == 3
        assert not lay.uniform
        assert lay.monotonic

    def test_adjacent_blocks_merge_into_one_run(self):
        # indexed blocks [0,1] and [2,3,4] are one dense run
        lay = ir_of(derived.indexed([2, 3], [0, 2], P.INT))
        assert lay.nruns == 1
        assert list(lay.run_lens) == [5]

    def test_non_monotonic_layout_flagged(self):
        lay = ir_of(derived.indexed([2, 2], [4, 0], P.INT))
        assert not lay.monotonic
        assert not lay.scatter_safe(1)

    def test_overlapping_instances_not_scatter_safe(self):
        # span 6 but extent 3: instance i+1 interleaves with instance i
        t = DatatypeImpl(P.INT.base, [0, 5], extent_elems=3)
        t.commit()
        assert t.layout().scatter_safe(1)
        assert not t.layout().scatter_safe(2)

    def test_empty_type(self):
        lay = ir_of(derived.vector(0, 1, 1, P.INT))
        assert lay.nruns == 0 and lay.size_elems == 0
        assert not lay.wire_friendly(0)
        assert lay.byte_views(np.zeros(4, dtype=np.int32), 0, 0) == []


class TestGatherScatterEquivalence:
    CASES = (
        derived.vector(7, 3, 5, P.DOUBLE),
        derived.vector(4, 2, -3, P.INT),          # negative stride
        derived.indexed([2, 1, 4], [0, 5, 9], P.INT),
        derived.hvector(3, 2, 32, P.DOUBLE),
        derived.struct([2, 3], [0, 40], [P.LONG, P.LONG]),
    )

    @pytest.mark.parametrize("t", CASES, ids=lambda t: t.name)
    @pytest.mark.parametrize("count", (1, 2, 3))
    def test_ir_matches_flat_indices(self, t, count):
        t.commit()
        lay = t.layout()
        idx = t.flat_indices(count, 0)
        lo = -int(idx.min()) if idx.min() < 0 else 0
        span = int(idx.max()) + 1 + lo
        buf = np.arange(span * 2, dtype=t.base.np_dtype)
        expect = buf[t.flat_indices(count, lo)]
        got = lay.gather(buf, lo, count)
        assert np.array_equal(got, expect)
        # scatter back through the IR (total: a layout the block copies
        # cannot write takes the index map) and through fancy indexing
        out_ir = np.zeros_like(buf)
        lay.scatter(out_ir, lo, count, expect)
        out_ref = np.zeros_like(buf)
        out_ref[t.flat_indices(count, lo)] = expect
        assert np.array_equal(out_ir, out_ref)

    def test_scatter_range_segments(self):
        t = derived.vector(6, 4, 7, P.INT)
        t.commit()
        lay = t.layout()
        span = int(t.flat_indices(2).max()) + 1
        src = np.arange(2 * t.size_elems, dtype=np.int32)
        ref = np.zeros(span, dtype=np.int32)
        ref[t.flat_indices(2, 0)] = src
        out = np.zeros(span, dtype=np.int32)
        for lo in range(0, len(src), 5):   # land in 5-element segments
            lay.scatter_range(out, 0, src[lo:lo + 5], lo)
        assert np.array_equal(out, ref)

    def test_strategy_is_chosen_and_counted_here(self):
        """gather / scatter / scatter_range are total: the layout picks
        slice, run walk or index map, and DATAPATH says which."""
        many = ir_of(derived.indexed([1] * 40, [i * i for i in range(40)],
                                     P.INT))          # 40 irregular runs
        backwards = ir_of(derived.indexed([2, 2], [4, 0], P.INT))
        cases = [(ir_of(derived.contiguous(4, P.INT)), "contig", "contig",
                  "contig"),
                 (ir_of(derived.vector(3, 2, 5, P.INT)), "runs", "runs",
                  "runs"),
                 (many, "index", "index", "index"),
                 (backwards, "runs", "index", "runs")]
        for lay, gather, scatter, ranged in cases:
            idx = lay.flat_indices(2, 0)
            buf = np.arange(int(idx.max()) + 1, dtype=np.int32)
            before = DATAPATH.snapshot()
            dense = lay.gather(buf, 0, 2)
            assert np.array_equal(dense, buf[idx])
            out = np.zeros_like(buf)
            lay.scatter(out, 0, 2, dense)
            ref = np.zeros_like(buf)
            ref[idx] = dense
            assert np.array_equal(out, ref)
            out[:] = 0
            cut = len(dense) // 2 + 1        # mid-instance: two segments
            lay.scatter_range(out, 0, dense[:cut], 0)
            lay.scatter_range(out, 0, dense[cut:], cut)
            assert np.array_equal(out, ref)
            after = DATAPATH.snapshot()
            grew = {k: after[k] - before[k] for k in after
                    if after[k] != before[k]}
            want = {"gather_" + gather: 1}
            for key in ("scatter_" + scatter, "scatter_" + ranged,
                        "scatter_" + ranged):
                want[key] = want.get(key, 0) + 1
            assert grew == want, (lay, grew)

    def test_scatter_range_out_of_window_raises(self):
        t = derived.vector(2, 2, 4, P.INT)
        t.commit()
        buf = np.zeros(3, dtype=np.int32)   # too short for instance 2
        with pytest.raises(IndexError):
            t.layout().scatter_range(buf, 0,
                                     np.arange(4, dtype=np.int32), 0)


class TestByteViews:
    def test_views_cover_dense_bytes_in_order(self):
        t = derived.vector(4, 3, 5, P.DOUBLE)
        t.commit()
        buf = np.arange(40, dtype=np.float64)
        views = t.layout().byte_views(buf, 2, t.size_elems)
        dense = buf[t.flat_indices(1, 2)]
        assert b"".join(bytes(v) for v in views) == dense.tobytes()

    def test_partial_instance_views(self):
        t = derived.vector(4, 3, 5, P.DOUBLE)
        t.commit()
        buf = np.arange(40, dtype=np.float64)
        for nelems in (1, 3, 4, 7, 11):
            views = t.layout().byte_views(buf, 0, nelems)
            dense = buf[t.flat_indices(1, 0)][:nelems]
            assert b"".join(bytes(v) for v in views) == dense.tobytes()

    def test_adjacent_views_merge(self):
        # extent == span: instance n+1 begins right after instance n,
        # so the tail run of one merges with the head run of the next
        t = derived.indexed([2, 2], [0, 2], P.INT)   # one dense run of 4
        t.commit()
        buf = np.zeros(16, dtype=np.int32)
        views = t.layout().byte_views(buf, 0, 2 * t.size_elems)
        assert len(views) == 1

    @pytest.mark.parametrize("nelems", (12, 7, 30))
    def test_address_table_names_every_view(self, nelems):
        """The views' ``[address, length]`` table — one vectorised add
        over the cached spans — agrees with asking each view where it
        points, whole instances and a partial trailing one alike."""
        t = derived.vector(4, 3, 5, P.DOUBLE)
        t.commit()
        buf = np.arange(80, dtype=np.float64)
        views = t.layout().byte_views(buf, 2, nelems)
        table = views.address_table()
        assert table.dtype == np.uint64 and table.shape == (len(views), 2)
        for (address, length), view in zip(table.tolist(), views):
            assert length == len(view)
            assert address == np.frombuffer(view, np.uint8).ctypes.data
        again = t.layout().byte_views(buf, 2, nelems).address_table()
        assert np.array_equal(table, again)       # the cache is not mutated
        other = np.zeros(80, dtype=np.float64)
        moved = t.layout().byte_views(other, 2, nelems).address_table()
        assert (moved[:, 0].astype(np.int64) - table[:, 0].astype(np.int64)
                == other.ctypes.data - buf.ctypes.data).all()
        assert np.array_equal(moved[:, 1], table[:, 1])

    def test_out_of_window_returns_none(self):
        t = derived.vector(4, 3, 5, P.DOUBLE)
        t.commit()
        buf = np.zeros(4, dtype=np.float64)
        assert t.layout().byte_views(buf, 0, t.size_elems) is None

    def test_writable_views_scatter(self):
        t = derived.vector(3, 2, 4, P.INT)
        t.commit()
        buf = np.zeros(12, dtype=np.int32)
        views = t.layout().byte_views(buf, 0, t.size_elems)
        payload = np.arange(6, dtype=np.int32).tobytes()
        pos = 0
        for v in views:
            v[:] = payload[pos:pos + len(v)]
            pos += len(v)
        ref = np.zeros(12, dtype=np.int32)
        ref[t.flat_indices(1, 0)] = np.arange(6)
        assert np.array_equal(buf, ref)

    def test_wire_friendly_gates(self):
        big = derived.vector(8, 4096, 8192, P.DOUBLE)
        big.commit()
        assert big.layout().wire_friendly(big.size_elems)
        # tiny runs: average run bytes below the floor
        tiny = derived.vector(16, 1, 3, P.INT)
        tiny.commit()
        assert not tiny.layout().wire_friendly(tiny.size_elems)
        # contiguous is always friendly
        cont = derived.contiguous(4, P.INT)
        cont.commit()
        assert cont.layout().wire_friendly(4)


class TestCaches:
    def test_commit_builds_ir_once(self):
        t = derived.vector(3, 1, 2, P.INT)
        assert t._layout is None
        t.commit()
        lay = t._layout
        assert lay is not None
        assert t.layout() is lay

    def test_free_invalidates_ir_and_index_caches(self):
        t = derived.vector(3, 1, 2, P.INT)
        t.commit()
        t.flat_indices(2, 0)
        lay = t._layout
        assert lay is not None and lay._index_cache
        t.free()
        assert t._layout is None      # and with it the index maps
        with pytest.raises(MPIException):
            t.layout()
        with pytest.raises(MPIException):
            t.flat_indices(2, 0)

    def test_index_cache_lru_eviction_keeps_hot_entries(self):
        t = derived.vector(2, 1, 2, P.INT)
        t.commit()
        hot = t.flat_indices(1, 0)
        for i in range(1, _INDEX_CACHE_MAX + 8):
            t.flat_indices(1, i)
            t.flat_indices(1, 0)          # keep (1, 0) hot
        cache = t.layout()._index_cache
        assert len(cache) <= _INDEX_CACHE_MAX
        assert t.flat_indices(1, 0) is hot   # survived eviction
        assert (1, 1) not in cache           # coldest entries evicted

    def test_span_cache_bounded(self):
        from repro.datatypes.layout import _SPAN_CACHE_MAX
        t = derived.vector(4, 2, 4, P.INT)
        t.commit()
        lay = t.layout()
        buf = np.zeros(t.extent_elems + 64, dtype=np.int32)
        for off in range(_SPAN_CACHE_MAX + 5):
            lay.byte_views(buf, off, t.size_elems)
        assert len(lay._span_cache) <= _SPAN_CACHE_MAX
