"""Workload table, segment runner and metric arithmetic.

A *segment* is one fresh job, confined to one CPU, doing a fixed number
of operations.  A workload's reported timing is the best over its
segments of the per-segment statistic (``BEST`` says why); a segment that
raises, overruns its deadline or fails its output check counts all its
planned operations as failed and contributes no samples.
"""

from __future__ import annotations

import contextlib
import os
import statistics
import sys
import time
import traceback
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

import bodies
import inputs
import spans as spans_mod

from repro.executor.procrunner import ProcExecutor
from repro.executor.runner import MPIExecutor


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    ranks: int
    #: REPRO_SHM value the process-per-rank job is pinned to; None means
    #: rank-threads of this process on InprocTransport (the paper's SM mode)
    shm: str | None
    #: operations per segment at run.py --seconds 15, sized at the seed
    #: commit on the reference box so that a driver run (--seconds 10,
    #: five segments with their set-up and tear-down) takes 12 to 15 s
    ops: int
    body: Callable
    #: operations come in multiples of this (a round trip is 2 one-way
    #: messages, a window is 64 messages)
    unit: int = 1
    extra: dict = field(default_factory=dict)
    #: harness-side output check over all ranks' results -> (bad, detail)
    check: Callable | None = None


def _check_laplace(cfg: dict, results: list) -> tuple[int, str]:
    """Gathered field against the single-process run, max abs <= 1e-12."""
    n = cfg["n"]
    left = inputs.laplace_boundary(
        inputs.rng(cfg["seed"], cfg["workload"], cfg["segment"]), n)
    want = inputs.laplace_serial(left, n, cfg["ops"])
    got = np.empty_like(want)
    for res in results:
        (py, px), patch = res["output"]["coords"], res["output"]["patch"]
        ny, nx = patch.shape
        got[py * ny:(py + 1) * ny, px * nx:(px + 1) * nx] = patch
    err = float(np.abs(got - want).max())
    return int(err > 1e-12), f"max abs error {err:.3e}"


WORKLOADS = (
    Workload("pp_small_shm",
             "8 B blocking pingpong on the default same-host carrier: every "
             "per-message layer does all the work and bytes do none",
             ranks=2, shm="1", ops=11000, unit=2, body=bodies.pp_small),
    Workload("pp_small_tcp",
             "the same pingpong on loopback TCP: the control for "
             "carrier-specific changes and the guard on the fallback carrier",
             ranks=2, shm="0", ops=19000, unit=2, body=bodies.pp_small),
    Workload("pp_large_shm",
             "4 MiB strided Vector ping and contiguous pong: copies, "
             "rendezvous and the layout datapath dominate, per-message "
             "cost does not",
             ranks=2, shm="1", ops=600, body=bodies.pp_large),
    Workload("msgrate_tcp",
             "windows of 64 x 1 KiB Isend against pre-posted Irecv: posted "
             "queue depth, batched wakeups and the writer handoff, which "
             "a latency gain must not cost",
             ranks=2, shm="0", ops=500 * inputs.WINDOW, unit=inputs.WINDOW,
             body=bodies.msgrate),
    Workload("coll_mix_tcp",
             "rounds of Barrier, Bcast, small and 256 KiB Allreduce and "
             "Alltoall on 4 ranks: the collective algorithms and reduction "
             "kernels do most of the work",
             ranks=4, shm="0", ops=190, body=bodies.coll_mix),
    Workload("laplace_sm",
             "whole-application Jacobi solve on rank-threads: bypasses "
             "envelope encoding and both wire carriers, so a carrier "
             "change predicts no change here",
             ranks=4, shm=None, ops=1800, body=bodies.laplace,
             extra={"n": 256}, check=_check_laplace),
    Workload("taskfarm_tcp",
             "master/worker farm of pickled dicts with ANY_SOURCE receives "
             "and Probe(ANY_TAG): the only traffic through object "
             "serialization and the wildcard match path",
             ranks=4, shm="0", ops=6000, body=bodies.taskfarm),
)
BY_NAME = {w.name: w for w in WORKLOADS}


def scaled_ops(wl: Workload, scale: float) -> int:
    """Operation count of one segment at ``scale`` x the reference length."""
    return max(1, round(wl.ops * scale / wl.unit)) * wl.unit


@contextlib.contextmanager
def pinned_env(**values):
    """Set environment variables for a job's children, then restore."""
    before = {k: os.environ.get(k) for k in values}
    os.environ.update(values)
    try:
        yield
    finally:
        for key, old in before.items():
            if old is None:
                os.environ.pop(key, None)
            else:
                os.environ[key] = old


@contextlib.contextmanager
def one_cpu():
    """Confine this thread, and every thread and process started from it
    until the block ends, to one CPU (the highest-numbered one allowed:
    CPU 0 also serves the guest's interrupts).

    A job is a dozen threads in two to four processes, more than the
    box has cores, so left alone its timings follow where the scheduler
    happens to put them: two processes that share a core pass a message
    in 6 us, on two cores in 30 us (an IPI into a halted vCPU), and the
    placement wanders from second to second.  On one core there is no
    placement to wander; README.md has the numbers."""
    if not hasattr(os, "sched_setaffinity"):  # not Linux
        yield
        return
    allowed = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {max(allowed)})
    try:
        yield
    finally:
        os.sched_setaffinity(0, allowed)


def launch(wl: Workload, cfg: dict, deadline: float) -> tuple[list, float]:
    """Run one job of ``wl``; returns (per-rank results, start stamp).

    The stamp is taken before the executor exists, so ``setup_s`` covers
    spawn, bootstrap and mesh/segment creation."""
    with one_cpu():
        if wl.shm is None:
            t0 = time.time()
            with MPIExecutor(wl.ranks, transport="inproc") as ex:
                return ex.run(wl.body, args=(cfg,), timeout=deadline), t0
        with pinned_env(REPRO_SHM=wl.shm):
            t0 = time.time()
            with ProcExecutor(wl.ranks) as ex:
                return ex.run(wl.body, args=(cfg,), timeout=deadline), t0


def run_segment(wl: Workload, ops: int, seed: int, segment: int,
                traced: bool, deadline: float) -> dict:
    """One fresh job of ``ops`` operations; never raises."""
    cfg = {"workload": wl.name, "ops": ops, "seed": seed,
           "segment": segment, "traced": traced,
           "procs": wl.shm is not None, **wl.extra}
    seg = {"planned_ops": ops, "ok": False, "error": None}
    try:
        results, t0 = launch(wl, cfg, deadline)
        bad, detail = sum(r["bad"] for r in results), ""
        if wl.check is not None:
            more, detail = wl.check(cfg, results)
            bad += more
    except Exception as exc:  # noqa: BLE001 - a failed job is a result
        traceback.print_exc(file=sys.stderr)
        seg["error"] = f"{type(exc).__name__}: {exc}"
        return seg
    if bad:
        seg["error"] = f"{bad} output check(s) failed" \
            + (f" ({detail})" if detail else "")
        return seg
    lead = results[0]
    counters: dict[str, int] = {}
    for r in results:
        for key, value in r["counters"].items():
            counters[key] = counters.get(key, 0) + value
    seg.update(
        ok=True,
        setup_s=max(r["t_ready"] for r in results) - t0,
        samples_us=lead["samples_s"] * 1e6,
        wall_s=lead["wall_s"],
        cpu_s=sum(r["cpu_s"] for r in results),
        rss_mib=sum(r["maxrss_kib"] for r in results) / 1024,
        payload_bytes=lead["payload_bytes"],
        counters=counters,
        spans=[r["spans"] for r in results])
    return seg


# ---------------------------------------------------------------------------
# metric arithmetic
# ---------------------------------------------------------------------------

#: a segment's per-op samples are read in this many windows of
#: consecutive operations, none shorter than WINDOW_MIN samples
WINDOWS_PER_SEGMENT = 8
WINDOW_MIN = 50

#: how a workload's value is taken from its segments' values.  The box is
#: one guest of a shared host: for a second or a minute at a time a
#: neighbour slows it by a third or more, in steps, and nothing a run
#: does shortens that.  The disturbance only ever adds time, so a timing
#: is read where there was least of it: in the best window of the best
#: segment.  Set-up and memory are not sampled per operation and are
#: reported as the median of the segments.
BEST = {"setup_s": statistics.median, "op_us_p50": min, "op_us_p90": min,
        "op_us_p99": min, "ops_per_s": max, "payload_MBps": max,
        "cpu_us_per_op": min, "peak_rss_MiB": statistics.median}


def best_window(samples_us: np.ndarray) -> np.ndarray:
    """(p50, p90, p99) over windows of consecutive operations, each
    percentile from the window where it was lowest (taking all three
    from the window with the lowest median moved p90 twice as much
    from run to run)."""
    n = len(samples_us)
    size = min(n, max(WINDOW_MIN, n // WINDOWS_PER_SEGMENT))
    whole = samples_us[:n - n % size].reshape(-1, size)
    return np.percentile(whole, [50, 90, 99], axis=1).min(axis=1)


def segment_metrics(seg: dict) -> dict:
    """End-to-end statistics of one successful segment."""
    ops, wall = seg["planned_ops"], seg["wall_s"]
    p50, p90, p99 = best_window(seg["samples_us"])
    return {
        "setup_s": seg["setup_s"],
        "op_us_p50": float(p50),
        "op_us_p90": float(p90),
        "op_us_p99": float(p99),
        "ops_per_s": ops / wall,
        "payload_MBps": seg["payload_bytes"] / wall / 1e6,
        "cpu_us_per_op": seg["cpu_s"] / ops * 1e6,
        "peak_rss_MiB": seg["rss_mib"],
    }


def _share(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def counter_metrics(seg: dict) -> dict:
    """Counts per operation from the program's always-on counters."""
    c = {k: seg["counters"].get(k, 0) for k in (
        "wire.tx_frames", "wire.tx_bytes", "wire.eager_frames",
        "wire.eager_direct_frames", "wire.rts_frames", "wire.stall_sleeps",
        "mailbox.matched_posted", "mailbox.matched_direct",
        "mailbox.matched_unexpected", "datapath.send_view",
        "datapath.send_iovec", "datapath.gather_contig",
        "datapath.gather_runs", "datapath.gather_index")}
    ops = seg["planned_ops"]
    early = c["mailbox.matched_posted"] + c["mailbox.matched_direct"]
    borrowed = c["datapath.send_view"] + c["datapath.send_iovec"]
    copied = c["datapath.gather_contig"] + c["datapath.gather_runs"] \
        + c["datapath.gather_index"]
    return {
        "wire.frames_per_op": c["wire.tx_frames"] / ops,
        "wire.bytes_per_op": c["wire.tx_bytes"] / ops,
        "wire.eager_direct_share": _share(c["wire.eager_direct_frames"],
                                          c["wire.eager_frames"]),
        "wire.rndv_share": _share(c["wire.rts_frames"],
                                  c["wire.rts_frames"]
                                  + c["wire.eager_frames"]),
        "mailbox.posted_share": _share(
            early, early + c["mailbox.matched_unexpected"]),
        "datapath.send_view_share": _share(borrowed, borrowed + copied),
        "shm.stall_sleeps_per_op": c["wire.stall_sleeps"] / ops,
    }


#: span name -> per-layer metric: median duration of that MPI call over
#: all ranks, inside the timed loop (0 when the workload never makes it)
API_CALLS = {"Send": "api.send_us", "Recv": "api.recv_us",
             "Sendrecv": "api.sendrecv_us", "Waitall": "api.waitall_us",
             "Allreduce": "api.allreduce_us", "Probe": "api.probe_us"}


def api_metrics(seg: dict) -> dict:
    """Time in MPI, from the harness spans of one traced segment."""
    out = {}
    for call, metric in API_CALLS.items():
        durs = np.concatenate([spans_mod.durations_us(p, call)
                               for p in seg["spans"]])
        out[metric] = float(np.median(durs)) if len(durs) else 0.0
    in_mpi = 0.0
    for p in seg["spans"]:
        op_span = p["names"].index("op") if "op" in p["names"] else -1
        timed = (p["op"] >= 0) & (p["name"] != op_span)
        in_mpi += float((p["end"] - p["start"])[timed].sum())
    out["api.mpi_share"] = in_mpi / (seg["wall_s"] * len(seg["spans"]))
    return out


def summarize(segments: list[dict]) -> dict:
    """A workload's values from its successful segments (``BEST``),
    failures counted."""
    good = [s for s in segments if s["ok"]]
    attempted = sum(s["planned_ops"] for s in segments)
    failed = sum(s["planned_ops"] for s in segments if not s["ok"])
    per_seg = [segment_metrics(s) for s in good]
    metrics = {k: BEST[k]([m[k] for m in per_seg])
               for k in (per_seg[0] if per_seg else ())}
    metrics["failed_share"] = failed / attempted
    return {
        "metrics": metrics,
        "segments": per_seg,
        "attempted": attempted,
        "failed": failed,
        "samples": sum(len(s["samples_us"]) for s in good),
        "errors": [s["error"] for s in segments if not s["ok"]],
    }
