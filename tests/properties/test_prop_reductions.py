"""Property-based tests: reductions and collective invariants against
NumPy references, executed through the real multi-rank stack."""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro import mpirun
from repro.mpijava import MPI
from repro.runtime.collective import ALGORITHM_CHOICES
from tests.conftest import spmd

NP_OPS = {"SUM": np.sum, "PROD": np.prod, "MAX": np.max, "MIN": np.min}

arrays = st.lists(
    st.lists(st.integers(-50, 50), min_size=3, max_size=3),
    min_size=4, max_size=4)


@settings(max_examples=20, deadline=None)
@given(arrays, st.sampled_from(sorted(NP_OPS)))
def test_allreduce_matches_numpy(data, opname):
    def body(rows, name):
        w = MPI.COMM_WORLD
        sb = np.array(rows[w.Rank()], dtype=np.int64)
        rb = np.zeros(3, dtype=np.int64)
        w.Allreduce(sb, 0, rb, 0, 3, MPI.LONG, getattr(MPI, name))
        return list(rb)

    out = mpirun(4, spmd(body), args=(data, opname))
    expected = list(NP_OPS[opname](np.array(data, dtype=np.int64),
                                   axis=0))
    assert all(row == expected for row in out)


@settings(max_examples=15, deadline=None)
@given(arrays)
def test_scan_prefix_property(data):
    def body(rows):
        w = MPI.COMM_WORLD
        sb = np.array(rows[w.Rank()], dtype=np.int64)
        rb = np.zeros(3, dtype=np.int64)
        w.Scan(sb, 0, rb, 0, 3, MPI.LONG, MPI.SUM)
        return list(rb)

    out = mpirun(4, spmd(body), args=(data,))
    prefix = np.cumsum(np.array(data, dtype=np.int64), axis=0)
    for r in range(4):
        assert out[r] == list(prefix[r])


@settings(max_examples=15, deadline=None)
@given(arrays)
def test_reduce_equals_allreduce_root_value(data):
    def body(rows):
        w = MPI.COMM_WORLD
        sb = np.array(rows[w.Rank()], dtype=np.int64)
        r1 = np.zeros(3, dtype=np.int64)
        r2 = np.zeros(3, dtype=np.int64)
        w.Reduce(sb, 0, r1, 0, 3, MPI.LONG, MPI.SUM, 2)
        w.Allreduce(sb, 0, r2, 0, 3, MPI.LONG, MPI.SUM)
        return (list(r1), list(r2)) if w.Rank() == 2 else list(r2)

    out = mpirun(4, spmd(body), args=(data,))
    root_reduce, root_all = out[2]
    assert root_reduce == root_all


@settings(max_examples=15, deadline=None)
@given(st.lists(st.integers(-100, 100), min_size=4, max_size=4))
def test_allgather_is_permutation_invariant_concat(data):
    def body(values):
        w = MPI.COMM_WORLD
        sb = np.array([values[w.Rank()]], dtype=np.int32)
        rb = np.zeros(w.Size(), dtype=np.int32)
        w.Allgather(sb, 0, 1, MPI.INT, rb, 0, 1, MPI.INT)
        return list(rb)

    out = mpirun(4, spmd(body), args=(data,))
    assert all(row == data for row in out)


@settings(max_examples=12, deadline=None)
@given(st.lists(st.lists(st.integers(0, 9), min_size=4, max_size=4),
                min_size=4, max_size=4))
def test_alltoall_is_transpose(matrix):
    def body(m):
        w = MPI.COMM_WORLD
        sb = np.array(m[w.Rank()], dtype=np.int32)
        rb = np.zeros(4, dtype=np.int32)
        w.Alltoall(sb, 0, 1, MPI.INT, rb, 0, 1, MPI.INT)
        return list(rb)

    out = mpirun(4, spmd(body), args=(matrix,))
    transpose = np.array(matrix).T
    for r in range(4):
        assert out[r] == list(transpose[r])


@settings(max_examples=12, deadline=None)
@given(st.lists(st.integers(-1000, 1000), min_size=4, max_size=4),
       st.integers(0, 3))
def test_bcast_any_root_any_data(data, root):
    def body(values, r):
        w = MPI.COMM_WORLD
        buf = np.array([values[w.Rank()]], dtype=np.int64)
        w.Bcast(buf, 0, 1, MPI.LONG, r)
        return int(buf[0])

    out = mpirun(4, spmd(body), args=(data, root))
    assert out == [data[root]] * 4


@settings(max_examples=10, deadline=None)
@given(st.lists(st.floats(min_value=-1e6, max_value=1e6,
                          allow_nan=False), min_size=4, max_size=4))
def test_maxloc_finds_argmax(values):
    def body(vals):
        w = MPI.COMM_WORLD
        sb = np.array([vals[w.Rank()], w.Rank()], dtype=np.float64)
        rb = np.zeros(2)
        w.Allreduce(sb, 0, rb, 0, 1, MPI.DOUBLE2, MPI.MAXLOC)
        return (rb[0], int(rb[1]))

    out = mpirun(4, spmd(body), args=(values,))
    best = max(values)
    best_idx = values.index(best)
    assert all(o == (best, best_idx) for o in out)


# --- the ownership rule: every allreduce algorithm, both executors ------------

SIZES = (2, 3, 4, 5, 8)
#: count as a function of p: around the chunking edge, past the direct-
#: landing threshold and at the large-message switch-over
COUNTS = (lambda p: 1, lambda p: p - 1, lambda p: p, lambda p: p + 1,
          lambda p: 4097, lambda p: 32768)


def _allreduce_both_ways(algorithm, count, seed):
    """Blocking and ``I*`` + ``Wait`` under one override: both results,
    and the send window afterwards (it must be untouched)."""
    from repro.runtime.collective import algorithm_overrides
    w = MPI.COMM_WORLD
    rank = w.Rank()
    # small whole numbers: every partial sum is exact in a double
    mine = np.random.default_rng(seed + rank).integers(
        -1000, 1000, count).astype(np.float64)
    keep = mine.copy()
    blocking, nonblocking = np.full(count, -1.0), np.full(count, -1.0)
    with algorithm_overrides(allreduce=algorithm):
        w.Allreduce(mine, 0, blocking, 0, count, MPI.DOUBLE, MPI.SUM)
        w.Iallreduce(mine, 0, nonblocking, 0, count, MPI.DOUBLE,
                     MPI.SUM).Wait()
    return blocking, nonblocking, bool(np.array_equal(mine, keep))


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(SIZES), st.sampled_from(COUNTS),
       st.sampled_from(["inproc", "socket"]),
       st.sampled_from(ALGORITHM_CHOICES["allreduce"]),
       st.integers(0, 2 ** 16))
def test_every_allreduce_algorithm_matches_numpy(p, count_of, transport,
                                                 algorithm, seed):
    count = count_of(p)
    if count == 0:
        return
    out = mpirun(p, spmd(_allreduce_both_ways), transport=transport,
                 args=(algorithm, count, seed), timeout=60.0)
    want = sum(np.random.default_rng(seed + r).integers(
        -1000, 1000, count).astype(np.float64) for r in range(p))
    for blocking, nonblocking, send_untouched in out:
        assert np.array_equal(blocking, want)
        assert np.array_equal(nonblocking, want)
        assert send_untouched
