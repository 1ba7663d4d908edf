"""Cross-memory attach binding: tables, batching, resume, errnos, probe.

Everything here reads this process's own memory (``process_vm_readv`` on
one's own pid is always admitted) or a child's, so the tests need
nothing but a kernel that has the call; where it does not (non-Linux, a
seccomp filter), the module skips and the wire transport's fallback is
what runs.
"""

import ctypes
import errno
import subprocess
import sys

import numpy as np
import pytest

from repro.transport import cma

ME = cma.advert()[0]

pytestmark = pytest.mark.skipif(
    cma._readv is None or not cma.probe(-1, *cma.advert()),
    reason="process_vm_readv is not usable here")


def _rows(buf: np.ndarray, lens) -> np.ndarray:
    """``buf`` cut into consecutive rows of ``lens`` bytes."""
    lens = np.asarray(lens, dtype=np.uint64)
    starts = np.concatenate(([0], np.cumsum(lens)[:-1])).astype(np.uint64)
    return np.stack((starts + np.uint64(buf.ctypes.data), lens), axis=1)


def _pattern(n: int) -> np.ndarray:
    return (np.arange(n, dtype=np.int64) * 2654435761 % 251).astype(np.uint8)


class TestAddressTable:
    def test_rows_name_each_buffer(self):
        a, b = np.arange(5, dtype=np.float64), bytearray(b"xyz")
        table = cma.address_table([a, memoryview(b)])
        assert table.dtype == np.uint64 and table.shape == (2, 2)
        assert table[0].tolist() == [a.ctypes.data, 40]
        assert table[1, 1] == 3
        assert table[1, 0] == ctypes.addressof(
            ctypes.c_char.from_buffer(b))

    def test_read_only_exporters(self):
        """Send buffers may be immutable: bytes and read-only arrays are
        named like any other (no writable-buffer API on the way)."""
        frozen = _pattern(4096)
        frozen.setflags(write=False)
        blob = bytes(range(256)) * 4
        out = np.zeros(4096 + 1024, dtype=np.uint8)
        cma.read(ME, cma.address_table([frozen, blob]),
                 cma.address_table([out]))
        assert np.array_equal(out[:4096], frozen)
        assert out[4096:].tobytes() == blob

    def test_empty_buffers_are_zero_rows(self):
        table = cma.address_table([b"", np.empty(0), b"ab"])
        assert table[:2].tolist() == [[0, 0], [0, 0]]
        assert table[2, 1] == 2

    def test_strided_array_refused(self):
        with pytest.raises(ValueError, match="contiguous"):
            cma.address_table([np.arange(10)[::2]])

    def test_a_view_list_with_its_own_table_answers_directly(self):
        class Named(list):
            def address_table(self):
                return "mine"

        assert cma.address_table(Named()) == "mine"


class TestRead:
    @pytest.mark.parametrize("remote_lens, local_lens", [
        # one side longer than IOV_MAX, the other one row
        ([7] * 3000, [21000]),
        ([21000], [7] * 3000),
        # both longer, rows that never line up (5s against 7s)
        ([5] * 4200, [7] * 3000),
        # a batch boundary in the middle of the other side's row
        ([1] * 1024 + [4096], [2048, 3072]),
        # zero-length rows, leading, trailing and a whole batch of them
        ([0, 0, 100, 0, 28] + [0] * 1500 + [72, 0], [0, 150, 0, 50]),
    ])
    def test_uneven_tables_land_byte_for_byte(self, remote_lens,
                                              local_lens):
        n = sum(remote_lens)
        assert n == sum(local_lens)
        src, dst = _pattern(n), np.zeros(n + 16, dtype=np.uint8)
        cma.read(ME, _rows(src, remote_lens), _rows(dst[8:], local_lens))
        assert np.array_equal(dst[8:8 + n], src)
        assert not dst[:8].any() and not dst[8 + n:].any()

    def test_scatter_into_a_strided_destination_leaves_gaps(self):
        src = _pattern(64 * 16)
        dst = np.full(64 * 32, 0xEE, dtype=np.uint8)
        local = np.stack((dst.ctypes.data + np.arange(64) * 32,
                          np.full(64, 16)), axis=1).astype(np.uint64)
        cma.read(ME, _rows(src, [1024]), local)
        grid = dst.reshape(64, 32)
        assert np.array_equal(grid[:, :16].ravel(), src)
        assert (grid[:, 16:] == 0xEE).all()

    def test_byte_count_mismatch_raises_before_any_copy(self):
        src, dst = _pattern(100), np.zeros(100, dtype=np.uint8)
        with pytest.raises(ValueError, match="100 bytes.*99"):
            cma.read(ME, _rows(src, [100]), _rows(dst, [99]))
        assert not dst.any()

    def test_forced_short_read_resumes_mid_row(self, monkeypatch):
        """Whatever the kernel cuts a transfer short at, the next call
        starts exactly there — on both tables."""
        real, calls = cma._readv, []

        def one_local_row_17_bytes_at_a_time(pid, liov, ln, riov, rn, fl):
            first = np.ctypeslib.as_array(
                ctypes.cast(liov, ctypes.POINTER(ctypes.c_uint64)), (2,))
            clipped = np.array([[first[0], min(int(first[1]), 17)]],
                               dtype=np.uint64)
            calls.append(int(clipped[0, 1]))
            return real(pid, clipped.ctypes.data, 1, riov, rn, fl)

        monkeypatch.setattr(cma, "_readv", one_local_row_17_bytes_at_a_time)
        src, dst = _pattern(500), np.zeros(500, dtype=np.uint8)
        cma.read(ME, _rows(src, [123, 377]), _rows(dst, [200, 300]))
        assert np.array_equal(dst, src)
        assert len(calls) > 500 // 17 and sum(calls) == 500

    def test_dead_process_is_esrch(self):
        child = subprocess.Popen([sys.executable, "-c", "pass"])
        child.wait()
        dst = np.zeros(8, dtype=np.uint8)
        with pytest.raises(ProcessLookupError) as ei:
            cma.read(child.pid, [[dst.ctypes.data, 8]], _rows(dst, [8]))
        assert ei.value.errno == errno.ESRCH

    def test_unmapped_address_is_efault(self):
        dst = np.zeros(8, dtype=np.uint8)
        with pytest.raises(OSError) as ei:
            cma.read(ME, [[8, 8]], _rows(dst, [8]))
        assert ei.value.errno == errno.EFAULT

    def test_partial_then_fault_reports_the_fault(self):
        """A table whose tail is unmapped: the mapped head may land, the
        call still ends in EFAULT — never in a silent short result."""
        src, dst = _pattern(64), np.zeros(128, dtype=np.uint8)
        remote = np.array([[src.ctypes.data, 64], [8, 64]], dtype=np.uint64)
        with pytest.raises(OSError) as ei:
            cma.read(ME, remote, _rows(dst, [128]))
        assert ei.value.errno == errno.EFAULT

    def test_reads_another_process(self):
        """The real thing: a child's array, named by the child."""
        child = subprocess.Popen(
            [sys.executable, "-c",
             "import sys, numpy as np\n"
             "a = np.arange(100000, dtype=np.float64)\n"
             "print(a.ctypes.data, flush=True)\n"
             "sys.stdin.read()\n"],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
        try:
            address = int(child.stdout.readline())
            got = np.zeros(100000, dtype=np.float64)
            cma.read(child.pid, [[address, got.nbytes]],
                     cma.address_table([got]))
            assert np.array_equal(got, np.arange(100000, dtype=np.float64))
        finally:
            child.stdin.close()
            child.wait(timeout=10)

    def test_missing_syscall_is_enosys(self, monkeypatch):
        monkeypatch.setattr(cma, "_readv", None)
        dst = np.zeros(8, dtype=np.uint8)
        with pytest.raises(OSError) as ei:
            cma.read(ME, _rows(dst, [8]), _rows(dst, [8]))
        assert ei.value.errno == errno.ENOSYS


class TestProbe:
    @pytest.fixture(autouse=True)
    def _no_ambient_denial(self, monkeypatch):
        monkeypatch.delenv("REPRO_FAULT", raising=False)

    def test_own_advert_passes(self):
        assert cma.probe(0, *cma.advert())

    def test_wrong_word_means_wrong_process(self):
        pid, address, value = cma.advert()
        assert not cma.probe(0, pid, address, value ^ 1)

    def test_refusals_are_false_not_raised(self, monkeypatch):
        pid, address, value = cma.advert()
        assert not cma.probe(0, pid, 8, value)              # EFAULT
        monkeypatch.setattr(cma, "_readv", None)            # ENOSYS
        assert not cma.probe(0, pid, address, value)

    def test_denied_rank_only(self, monkeypatch):
        monkeypatch.setenv("REPRO_FAULT", "cma.probe:1::deny,shm.ring:1")
        assert cma.probe(0, *cma.advert())
        assert not cma.probe(1, *cma.advert())

    def test_allow_tracer_never_raises(self):
        cma.allow_tracer(ME)
