"""Cross-memory attach: read a same-host peer's memory in one copy.

``process_vm_readv(2)`` moves bytes from another process's address space
straight into ours — the "get" half of MPICH Nemesis' LMT and Open MPI
vader's CMA path.  The wire transport uses it for rendezvous payloads: a
sender's RTS names its buffer as an ``[address, length]`` table, the
receiver reads it directly into the posted user buffer.  One copy, no
intermediate ring, no writer thread on the data path.

A table is a C-contiguous ``(rows, 2)`` ``uint64`` array — byte-for-byte
an array of ``struct iovec`` on every 64-bit Linux ABI, so it goes to the
kernel as is.

The kernel admits the read iff the caller could ``ptrace``-attach the
target: same uid and, under Yama ``ptrace_scope=1``, a target that
declared the caller (or one of its ancestors) its tracer —
:func:`allow_tracer`.  Nothing here is configured: a pair uses the get
iff one real 8-byte :func:`probe` of the peer's advertised word passed.
"""

from __future__ import annotations

import ctypes
import errno
import os
import signal

import numpy as np

from repro.util import faultinject

__all__ = ["IOV_MAX", "advert", "address_table", "allow_tracer",
           "die_with_parent", "probe", "read"]

#: iovec rows the kernel takes per call, on either side
IOV_MAX = 1024

_PR_SET_PTRACER = 0x59616d61
_PR_SET_PDEATHSIG = 1


def _libc_function(name: str, restype, argtypes):
    try:
        fn = getattr(ctypes.CDLL(None, use_errno=True), name)
    except (OSError, AttributeError):   # not Linux / not glibc
        return None
    fn.restype, fn.argtypes = restype, argtypes
    return fn


#: ``process_vm_readv(pid, local_iov, liovcnt, remote_iov, riovcnt, flags)``
_readv = _libc_function(
    "process_vm_readv", ctypes.c_ssize_t,
    [ctypes.c_int, ctypes.c_void_p, ctypes.c_ulong, ctypes.c_void_p,
     ctypes.c_ulong, ctypes.c_ulong])
_prctl = _libc_function(
    "prctl", ctypes.c_int,
    [ctypes.c_int, ctypes.c_ulong, ctypes.c_ulong, ctypes.c_ulong,
     ctypes.c_ulong])

#: this process's probe word: peers read it to learn whether the kernel
#: lets them, and that the advertised pid really is this process (a pid
#: from another pid namespace would name somebody else, or nobody)
_word = np.zeros(1, dtype=np.uint64)


def _draw_word() -> None:
    _word[:] = np.frombuffer(os.urandom(8), dtype=np.uint64)


# One value per process: a forked child holds its parent's word at its
# parent's address, and with the value left alone a rank that read a
# *sibling* there would take it for the process the advert names.
_draw_word()
os.register_at_fork(after_in_child=_draw_word)


def advert() -> tuple[int, int, int]:
    """``(pid, address, value)`` of this process's probe word, for the
    peers' bootstrap hello."""
    return os.getpid(), _word.ctypes.data, int(_word[0])


def allow_tracer(pid: int) -> None:
    """Declare ``pid`` — and with it every descendant of ``pid`` — able
    to read this process (``prctl(PR_SET_PTRACER)``): what Yama
    ``ptrace_scope=1`` needs before sibling ranks of one launcher may
    read each other.  Best-effort; without Yama the call is refused and
    nothing needed it."""
    if _prctl is not None:
        _prctl(_PR_SET_PTRACER, pid, 0, 0, 0)


def die_with_parent() -> None:
    """Have the kernel SIGKILL this process when its parent dies
    (``prctl(PR_SET_PDEATHSIG)``; the caller re-checks ``getppid()``
    for a parent that died first).  Best-effort, as above."""
    if _prctl is not None:
        _prctl(_PR_SET_PDEATHSIG, signal.SIGKILL, 0, 0, 0)


def address_table(bufs) -> np.ndarray:
    """The ``[address, length]`` table naming ``bufs`` — C-contiguous
    buffer exporters (arrays, memoryviews, bytes; read-only ones too) —
    in order.  A view list that knows its own table (the layout IR's
    :class:`~repro.datatypes.layout.RunViews`) answers directly, without
    one address lookup per view."""
    own = getattr(bufs, "address_table", None)
    if own is not None:
        return own()
    table = np.zeros((len(bufs), 2), dtype=np.uint64)
    for row, buf in zip(table, bufs):
        arr = buf if isinstance(buf, np.ndarray) \
            else np.frombuffer(buf, dtype=np.uint8)
        if not arr.flags.c_contiguous:
            raise ValueError("address_table needs C-contiguous buffers")
        if arr.nbytes:
            row[0], row[1] = arr.ctypes.data, arr.nbytes
    return table


def _window(table: np.ndarray, ends: np.ndarray, done: int) -> np.ndarray:
    """Up to IOV_MAX rows of ``table`` from byte position ``done`` on
    (``ends`` = cumulative row ends), the first cut to start there."""
    i = int(np.searchsorted(ends, done, side="right"))
    rows = table[i:i + IOV_MAX]
    skip = done - (int(ends[i - 1]) if i else 0)
    if skip:
        rows = rows.copy()
        rows[0, 0] += skip
        rows[0, 1] -= skip
    return rows


def read(pid: int, remote, local) -> None:
    """Copy the bytes ``remote`` names in process ``pid`` into the
    memory ``local`` names here.

    Both are ``[address, length]`` tables of any row count; they must
    name the same number of bytes but may split it differently.  One
    syscall moves up to IOV_MAX rows of each side; a short transfer
    (the smaller window ran out, or the kernel stopped early) resumes
    where it ended, mid-row if need be.  Raises ``ValueError`` on a
    byte-count mismatch and ``OSError`` with the kernel's errno
    otherwise: ``EPERM`` (not allowed to attach), ``ESRCH`` (no such
    process, or it has exited), ``EFAULT`` (an address not mapped there
    — e.g. the peer is tearing down), ``ENOSYS`` (no such call here).
    """
    remote = np.ascontiguousarray(remote, dtype=np.uint64).reshape(-1, 2)
    local = np.ascontiguousarray(local, dtype=np.uint64).reshape(-1, 2)
    total = int(local[:, 1].sum())
    if int(remote[:, 1].sum()) != total:
        raise ValueError(
            f"cma.read: remote table names {int(remote[:, 1].sum())} "
            f"bytes, local table {total}")
    if _readv is None:
        raise OSError(errno.ENOSYS, "process_vm_readv is not available")
    # the common shapes (a contiguous window, one Vector's runs) fit one
    # call and go to the kernel untouched; windows are cut only for
    # longer tables and to resume a short transfer
    rwin, lwin, ends = remote, local, None
    done = 0
    while done < total:
        if done or len(remote) > IOV_MAX or len(local) > IOV_MAX:
            if ends is None:
                ends = np.cumsum(remote[:, 1]), np.cumsum(local[:, 1])
            rwin = _window(remote, ends[0], done)
            lwin = _window(local, ends[1], done)
        got = _readv(pid, lwin.ctypes.data, len(lwin),
                     rwin.ctypes.data, len(rwin), 0)
        if got < 0:
            err = ctypes.get_errno()
            raise OSError(err, f"process_vm_readv(pid {pid}): "
                               f"{os.strerror(err)}")
        if got == 0:
            # both windows hold bytes, so no progress is a fault the
            # kernel did not name
            raise OSError(errno.EFAULT,
                          f"process_vm_readv(pid {pid}) made no progress")
        done += got


def probe(rank: int, pid: int, address: int, value: int) -> bool:
    """Can ``rank`` (hosted by this process) read process ``pid``?  One
    real 8-byte read of the word ``pid`` advertised; False when the
    kernel refuses, the call does not exist, or the word read is not
    the one advertised (the pid names some other process)."""
    if faultinject.denied("cma.probe", rank):
        return False
    got = np.zeros(1, dtype=np.uint64)
    try:
        read(pid, [[address, 8]], address_table([got]))
    except OSError:
        return False
    return int(got[0]) == value
