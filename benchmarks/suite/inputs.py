"""Seeded inputs and the reference answers the outputs are checked against.

Everything a workload feeds the program is made here from the run's seed;
the program (``repro``) only ever sees the generated arrays and objects.
"""

from __future__ import annotations

import zlib

import numpy as np

#: pp_large ping layout: DOUBLE.Vector(count, block, stride) — 4 MiB of
#: data at 50 % density — and the contiguous 4 MiB pong
VEC_COUNT, VEC_BLOCK, VEC_STRIDE = 128, 4096, 8192
LARGE_BYTES = VEC_COUNT * VEC_BLOCK * 8
#: value the gaps of a strided receive buffer must still hold afterwards
GAP = -1.0

#: msgrate window: messages per window and bytes per message
WINDOW, MSG_BYTES = 64, 1024

#: coll_mix sizes: large allreduce length and alltoall block, in doubles
COLL_LARGE, COLL_BLOCK = 32768, 512

TASK_BLOB_MIN, TASK_BLOB_MAX = 16, 4096


def rng(seed: int, workload: str, segment: int) -> np.random.Generator:
    """Independent stream per (run seed, workload, segment)."""
    return np.random.default_rng(
        [int(seed), zlib.crc32(workload.encode()), int(segment)])


def vector_span() -> int:
    """Elements spanned by one instance of the pp_large Vector."""
    return (VEC_COUNT - 1) * VEC_STRIDE + VEC_BLOCK


def strided_buffer(data: np.ndarray | None) -> np.ndarray:
    """A Vector-shaped buffer: ``data`` in the blocks, GAP between them."""
    buf = np.full(vector_span(), GAP)
    if data is not None:
        strided_blocks(buf)[:] = data.reshape(VEC_COUNT, VEC_BLOCK)
    return buf


def strided_blocks(buf: np.ndarray) -> np.ndarray:
    """(count, block) view of the selected elements of a strided buffer."""
    return np.lib.stride_tricks.as_strided(
        buf, shape=(VEC_COUNT, VEC_BLOCK),
        strides=(VEC_STRIDE * 8, 8))


def make_tasks(gen: np.random.Generator, ntasks: int) -> list[dict]:
    """Task-farm work items: a dict with a blob of 16 B to 4 KiB."""
    sizes = gen.integers(TASK_BLOB_MIN, TASK_BLOB_MAX + 1, size=ntasks)
    pool = gen.bytes(int(sizes.sum()))
    ends = np.cumsum(sizes)
    return [{"id": t, "op": "crc32", "blob": pool[int(e - s):int(e)]}
            for t, (s, e) in enumerate(zip(sizes, ends))]


def task_answer(task: dict) -> int:
    return zlib.crc32(task["blob"])


def laplace_boundary(gen: np.random.Generator, n: int) -> np.ndarray:
    """Temperatures along the left edge of the global domain (n + 2 rows
    including the two halo rows)."""
    return gen.uniform(50.0, 150.0, size=n + 2)


def laplace_serial(left: np.ndarray, n: int, iters: int) -> np.ndarray:
    """Single-process Jacobi run of the laplace_sm problem: the interior
    n x n field after ``iters`` sweeps.  Same stencil expression as the
    parallel body, so the two agree to the last bit."""
    u = np.zeros((n + 2, n + 2))
    u[:, 0] = left
    new = u.copy()
    for _ in range(iters):
        new[1:-1, 1:-1] = 0.25 * (u[:-2, 1:-1] + u[2:, 1:-1]
                                  + u[1:-1, :-2] + u[1:-1, 2:])
        u, new = new, u
    return u[1:-1, 1:-1].copy()
