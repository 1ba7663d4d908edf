"""Layout IR: the canonical run-length form of a datatype's selection.

A committed datatype's displacement map compiles into a small list of
*dense runs* — ``(element start, element length)`` pairs in serialization
order — plus the outer ``extent`` stride that repeats the pattern per
instance.  This module alone decides how elements move between a user
buffer and the dense (serialized) stream:

* :meth:`LayoutIR.gather`, :meth:`LayoutIR.scatter` and
  :meth:`LayoutIR.scatter_range` are total.  Each picks, and counts in
  :data:`DATAPATH`, one of: a contiguous slice; one strided block copy
  (uniform layouts, any count); one 2-D block copy per run; or — for
  layouts the run form serves badly (many tiny irregular runs,
  overlapping or non-monotonic destinations, hand-built negative
  extents) — fancy indexing through the cached
  :meth:`LayoutIR.flat_indices` map, which is also the semantic
  reference the tests compare the other three against.  No caller
  chooses, and none validates: the window was checked where it was
  posted (:func:`repro.runtime.buffers.validate_buffer`).
* :meth:`LayoutIR.byte_views` hands wire transports a multi-view iovec
  (one byte view per run): noncontiguous sends ship with a single
  vectored ``sendmsg`` and posted receives ``recv_into`` the user
  buffer's runs directly — no pack/unpack staging either way.

The IR is built once (``DatatypeImpl.commit`` — or lazily on first use)
and cached on the type; ``free()`` drops it, index maps included.
"""

from __future__ import annotations

from collections import OrderedDict

import numpy as np
from numpy.lib.stride_tricks import as_strided

from repro.obs.metrics import CounterGroup

__all__ = ["LayoutIR", "RunViews", "DATAPATH", "WIRE_IOV_CAP",
           "WIRE_MIN_AVG_RUN_BYTES"]

#: which path moved each message's elements — contiguous slice, IR run
#: walk, or the index-map fallback — plus the wire-side view decisions
#: counted from :mod:`repro.runtime.buffers` (zero-copy borrow / iovec vs
#: gather copy on send, direct landing granted vs refused on receive)
DATAPATH = CounterGroup("datapath", (
    "gather_contig", "gather_runs", "gather_index",
    "scatter_contig", "scatter_runs", "scatter_index",
    "send_view", "send_iovec", "send_gather",
    "recv_direct", "recv_refused",
))

#: cached (count, offset) -> flat index maps per layout.  Eviction is
#: LRU: a working set of persistent requests cycling through more than
#: _INDEX_CACHE_MAX shapes drops only the coldest entry per miss instead
#: of dumping every cached index map at once.
_INDEX_CACHE_MAX = 32

#: cached (offset, nelems) -> byte-span tables per layout; fixed-size
#: messaging patterns (pingpongs, halo exchanges, persistent requests)
#: reuse one shape every message
_SPAN_CACHE_MAX = 8

#: hard cap on iovec entries per wire message (Linux IOV_MAX is 1024;
#: one slot is reserved for the frame header)
WIRE_IOV_CAP = 1023

#: below this *average* run size the per-view Python overhead beats the
#: staging copy it would avoid — such layouts take the dense gather path
WIRE_MIN_AVG_RUN_BYTES = 512


class RunViews(list):
    """Byte views of one buffer's selected runs, serialization order —
    plus what names the same runs to another process.

    A same-host receiver can read a payload straight out of the sender's
    memory (:mod:`repro.transport.cma`) given its ``[address, length]``
    table.  The views cannot say where they point without one lookup
    each, so the list keeps the buffer and the (cached)
    ``[byte start, byte length]`` table its views were sliced from; the
    address table is then one vectorised add.
    """

    __slots__ = ("_buf", "_spans")

    def __init__(self, views, buf: np.ndarray, spans: np.ndarray):
        super().__init__(views)
        self._buf = buf
        self._spans = spans

    def address_table(self) -> np.ndarray:
        """``(runs, 2)`` ``uint64`` rows ``[address, length]``."""
        table = self._spans.copy()
        table[:, 0] += np.uint64(self._buf.ctypes.data)
        return table


class LayoutIR:
    """Run-length layout of one datatype instance, extent-repeatable.

    ``run_starts[k]`` is the element offset (relative to the instance
    origin, may be negative for negative-stride types) of run ``k``;
    ``run_lens[k]`` its length in elements; ``run_dense[k]`` its start
    position in the dense (serialized) element stream.  Instance ``i``
    of a ``count``-instance window shifts every run by
    ``i * extent_elems``.
    """

    __slots__ = ("disp", "itemsize", "extent_elems", "size_elems", "nruns",
                 "run_starts", "run_lens", "run_dense", "span_lo",
                 "span_hi", "contiguous", "monotonic", "uniform",
                 "run_stride", "use_runs", "_span_cache", "_index_cache")

    def __init__(self, disp, extent_elems: int, itemsize: int):
        disp = self.disp = np.ascontiguousarray(disp, dtype=np.int64)
        n = int(disp.shape[0])
        self.itemsize = int(itemsize)
        self.extent_elems = int(extent_elems)
        self.size_elems = n
        if n == 0:
            self.run_starts = np.empty(0, dtype=np.int64)
            self.run_lens = np.empty(0, dtype=np.int64)
            self.run_dense = np.empty(0, dtype=np.int64)
            self.nruns = 0
            self.span_lo = self.span_hi = 0
            self.contiguous = False
            self.monotonic = True
        else:
            d = np.diff(disp)
            starts_idx = np.concatenate(
                ([0], np.flatnonzero(d != 1) + 1)).astype(np.int64)
            ends_idx = np.concatenate((starts_idx[1:], [n]))
            self.run_starts = disp[starts_idx]
            self.run_lens = ends_idx - starts_idx
            self.run_dense = starts_idx
            self.nruns = int(starts_idx.shape[0])
            self.span_lo = int(disp.min())
            self.span_hi = int(disp.max()) + 1
            self.contiguous = bool(self.nruns == 1
                                   and self.run_starts[0] == 0
                                   and self.extent_elems == n)
            self.monotonic = bool(n == 1 or np.all(d > 0))
        # uniform = equal-length runs at a constant inner stride (every
        # Vector/Hvector, and any regular Indexed): the whole selection
        # is then ONE strided block — count instances move with a single
        # 3-D strided copy regardless of nruns
        if self.nruns >= 2:
            sdiff = np.diff(self.run_starts)
            self.uniform = bool(
                np.all(self.run_lens == self.run_lens[0])
                and np.all(sdiff == sdiff[0]))
            self.run_stride = int(sdiff[0]) if self.uniform else 0
        else:
            self.uniform = self.nruns == 1
            self.run_stride = 0
        # Copy-strategy choice.  A uniform layout is one strided copy —
        # always beats the index fabric.  An irregular layout pays one
        # NumPy call (~us) per run, so with many irregular runs the
        # single fancy-indexed gather wins.  Negative extents (only
        # constructible by hand) stay on the index path: the
        # strided-view bounds reasoning below assumes extent >= 0.
        self.use_runs = bool(
            n > 0 and self.extent_elems >= 0
            and (self.uniform or self.nruns <= 32))
        self._span_cache: OrderedDict[tuple[int, int], tuple] = \
            OrderedDict()
        self._index_cache: OrderedDict[tuple[int, int], np.ndarray] = \
            OrderedDict()

    # -- the index map (fallback path and test oracle) ----------------------
    def flat_indices(self, count: int, offset: int = 0) -> np.ndarray:
        """Flat element indices selected by ``count`` instances at ``offset``.

        ``offset + i*extent + disp`` for ``i in range(count)`` — a single
        ``np.add.outer``.  Cached for repeated (count, offset) pairs —
        persistent requests and fixed-size loops hit the cache every
        iteration.
        """
        key = (int(count), int(offset))
        hit = self._index_cache.get(key)
        if hit is not None:
            try:
                self._index_cache.move_to_end(key)
            except KeyError:   # concurrently evicted by another rank
                pass
            return hit
        starts = offset + np.arange(count, dtype=np.int64) * self.extent_elems
        idx = np.add.outer(starts, self.disp).ravel()
        while len(self._index_cache) >= _INDEX_CACHE_MAX:
            try:
                self._index_cache.popitem(last=False)  # evict LRU only
            except KeyError:   # another rank emptied it concurrently
                break
        self._index_cache[key] = idx
        return idx

    # -- safety predicates --------------------------------------------------
    def scatter_safe(self, count: int) -> bool:
        """May runs be *written* with strided block copies?

        Requires disjoint destinations: serialization order must be
        memory order within an instance (monotonic displacements) and
        consecutive instances must not interleave (extent covers the
        span).  Overlapping layouts fall back to fancy indexing, whose
        last-write-wins order the run walk could not reproduce with
        vectorized per-run copies.
        """
        if not self.monotonic:
            return False
        return count <= 1 or self.extent_elems >= self.span_hi - self.span_lo

    def wire_friendly(self, nelems: int) -> bool:
        """Is a ``nelems``-element message worth shipping as an iovec?"""
        if self.size_elems == 0 or nelems <= 0:
            return False
        if self.contiguous:
            return True
        instances = -(-nelems // self.size_elems)
        entries = instances * self.nruns
        return (entries <= WIRE_IOV_CAP
                and nelems * self.itemsize
                >= entries * WIRE_MIN_AVG_RUN_BYTES)

    # -- block gather / scatter (whole instances) ---------------------------
    def _blocks(self, buf: np.ndarray, offset: int, count: int,
                dense: np.ndarray):
        """``(strided view of buf, matching view of dense)`` pairs that
        together cover ``count`` instances: ONE 3-D pair for a uniform
        layout (instance stride = extent, run stride = the constant
        inner stride) whatever ``nruns`` is, else one 2-D pair per run
        (rows = the run's position in each instance).  No index fabric
        either way; the window was validated where it was posted, so
        every view is in bounds.
        """
        est = buf.strides[0]
        row = self.extent_elems * est
        if self.uniform:
            shape = (count, self.nruns, int(self.run_lens[0]))
            yield (as_strided(buf[int(offset + self.run_starts[0]):],
                              shape=shape,
                              strides=(row, self.run_stride * est, est)),
                   dense.reshape(shape))
            return
        dense = dense.reshape(count, self.size_elems)
        for s, ln, dn in zip(self.run_starts, self.run_lens,
                             self.run_dense):
            yield (as_strided(buf[int(offset + s):], shape=(count, int(ln)),
                              strides=(row, est)),
                   dense[:, int(dn):int(dn + ln)])

    def gather(self, buf: np.ndarray, offset: int,
               count: int) -> np.ndarray:
        """Dense copy of ``count`` instances (always a private copy: an
        eager send parks it in the receiver's unexpected queue while MPI
        lets the sender reuse the buffer).

        A contiguous layout is one slice; one with too many irregular
        runs gathers through the index map; anything else moves in
        strided block copies (:meth:`_blocks`).
        """
        if self.contiguous:
            DATAPATH.add("gather_contig")
            return buf[offset:offset + count * self.size_elems].copy()
        if not self.use_runs:
            DATAPATH.add("gather_index")
            return buf[self.flat_indices(count, offset)]
        DATAPATH.add("gather_runs")
        out = np.empty(count * self.size_elems, dtype=buf.dtype)
        if count:
            for src, dst in self._blocks(buf, offset, count, out):
                dst[...] = src
        return out

    def scatter(self, buf: np.ndarray, offset: int, count: int,
                data: np.ndarray) -> None:
        """Inverse of :meth:`gather`: land the first ``count`` whole
        instances of ``data``.  Destinations the block copies could
        overlap (see :meth:`scatter_safe`) go through the index map,
        whose last-write-wins order is the reference."""
        need = count * self.size_elems
        if self.contiguous:
            DATAPATH.add("scatter_contig")
            buf[offset:offset + need] = data[:need]
        elif not (self.use_runs and self.scatter_safe(count)):
            DATAPATH.add("scatter_index")
            buf[self.flat_indices(count, offset)] = data[:need]
        else:
            DATAPATH.add("scatter_runs")
            if count:
                for dst, src in self._blocks(buf, offset, count,
                                             data[:need]):
                    dst[...] = src

    # -- dense-range landing (segments, partial messages) --------------------
    def scatter_range(self, buf, offset: int, data,
                      elem_lo: int) -> None:
        """Land dense elements ``elem_lo..`` into the selected positions
        — pipelined collective segments and partial trailing instances,
        where the whole-instance block form does not apply.

        A run walk: sequential slice copies of the run pieces the range
        overlaps, in serialization order, so overlapping layouts keep
        fancy indexing's last-write-wins outcome.  With many tiny
        irregular runs the index map of just the instances the range
        touches beats that per-piece Python loop.
        """
        n = len(data)
        if n == 0:
            return
        if self.contiguous:
            DATAPATH.add("scatter_contig")
            buf[offset + elem_lo:offset + elem_lo + n] = data
            return
        size, ext = self.size_elems, self.extent_elems
        if not self.use_runs:
            DATAPATH.add("scatter_index")
            first, skip = divmod(elem_lo, size)
            idx = self.flat_indices(-(-(skip + n) // size),
                                    offset + first * ext)
            buf[idx[skip:skip + n]] = data
            return
        DATAPATH.add("scatter_runs")
        rd, rl, rs = self.run_dense, self.run_lens, self.run_starts
        nbuf = len(buf)
        pos = 0
        while pos < n:
            inst, de = divmod(elem_lo + pos, size)
            k = int(np.searchsorted(rd, de, side="right")) - 1
            intra = de - int(rd[k])
            take = min(int(rl[k]) - intra, n - pos)
            start = offset + inst * ext + int(rs[k]) + intra
            if start < 0 or start + take > nbuf:
                # slice assignment would silently clamp, which must not
                # mask a range outside the validated window
                raise IndexError(
                    f"run [{start},{start + take}) outside buffer of "
                    f"length {nbuf}")
            buf[start:start + take] = data[pos:pos + take]
            pos += take

    def byte_spans(self, offset: int, nelems: int) \
            -> tuple[list, list, int, int, np.ndarray]:
        """``(starts, ends, lo, hi, table)`` byte spans, in serialization
        order, covering ``nelems`` dense elements at element ``offset``.

        Adjacent-in-memory pieces are merged (a contiguous tail after a
        strided head becomes one span); ``lo``/``hi`` bound the touched
        byte range for the caller's window check; ``table`` is the same
        spans as ``(n, 2)`` ``uint64`` rows ``[start, length]`` (meant
        for in-window spans: a negative start does not survive the
        cast).  Cached per ``(offset, nelems)`` with LRU eviction:
        fixed-shape messaging patterns pay the vectorized construction
        once.
        """
        key = (offset, nelems)
        hit = self._span_cache.get(key)
        if hit is not None:
            try:
                self._span_cache.move_to_end(key)
            except KeyError:   # concurrently evicted by another rank
                pass
            return hit
        size = self.size_elems
        full, part = divmod(nelems, size)
        grids = []
        if full:
            if full == 1:
                grids.append((offset + self.run_starts, self.run_lens))
            else:
                inst = np.arange(full, dtype=np.int64) * self.extent_elems
                starts = (offset + np.add.outer(
                    inst, self.run_starts)).ravel()
                lens = np.broadcast_to(
                    self.run_lens, (full, self.nruns)).ravel()
                grids.append((starts, lens))
        if part:
            # partial trailing instance: the run prefix covering its
            # first ``part`` dense elements
            k = int(np.searchsorted(self.run_dense, part - 1,
                                    side="right")) - 1
            base = offset + full * self.extent_elems
            pstarts = base + self.run_starts[:k + 1]
            plens = self.run_lens[:k + 1].copy()
            plens[k] = part - int(self.run_dense[k])
            grids.append((pstarts, plens))
        if len(grids) == 1:
            starts, lens = grids[0]
        else:
            starts = np.concatenate([g[0] for g in grids])
            lens = np.concatenate([g[1] for g in grids])
        isz = self.itemsize
        a = starts * isz
        b = a + lens * isz
        if len(a) > 1:
            # merge pieces that are adjacent in memory (and in order)
            new_span = np.empty(len(a), dtype=bool)
            new_span[0] = True
            np.not_equal(a[1:], b[:-1], out=new_span[1:])
            if not new_span.all():
                last = np.flatnonzero(
                    np.concatenate((new_span[1:], [True])))
                a, b = a[new_span], b[last]
        entry = (a.tolist(), b.tolist(), int(a.min()), int(b.max()),
                 np.stack((a, b - a), axis=1).astype(np.uint64))
        while len(self._span_cache) >= _SPAN_CACHE_MAX:
            try:
                self._span_cache.popitem(last=False)
            except KeyError:   # another rank emptied it concurrently
                break
        self._span_cache[key] = entry
        return entry

    def byte_views(self, buf: np.ndarray, offset: int,
                   nelems: int) -> list[memoryview] | None:
        """Byte views of the selected runs, serialization order.

        The iovec of a zero-copy wire message: a vectored send ships
        them as-is, a direct-landing receive streams into them.  Built
        from the cached :meth:`byte_spans` tables — on the steady state
        of a fixed-shape exchange this is just one ``memoryview`` slice
        per span — handed out as a :class:`RunViews`, which can also
        name the runs by address.  Returns None when any span falls
        outside ``buf`` — callers then take the staged path, which
        reports the proper MPI error.
        """
        if self.size_elems == 0 or nelems <= 0:
            return []
        starts, ends, lo, hi, table = self.byte_spans(offset, nelems)
        if lo < 0 or hi > buf.nbytes:
            return None
        mv = memoryview(buf).cast("B")
        return RunViews([mv[x:y] for x, y in zip(starts, ends)], buf, table)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"LayoutIR(runs={self.nruns}, size={self.size_elems}, "
                f"extent={self.extent_elems}, "
                f"{'contiguous' if self.contiguous else 'strided'})")
