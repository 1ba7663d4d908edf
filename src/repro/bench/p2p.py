"""Point-to-point latency/bandwidth sweep: the wire fast path's scoreboard.

A blocking Send/Recv pingpong (the paper's §4.2 kernel) swept over message
sizes 8 B – 4 MB on the live backends:

* ``threads-SM``  — ranks are threads, in-process handoff (no wire);
* ``threads-DM``  — ranks are threads, kernel socketpairs
  (:class:`~repro.transport.socket_tcp.SocketTransport`);
* ``procs-DM``    — ranks are OS processes
  (:class:`~repro.executor.procrunner.ProcExecutor`), swept under
  *both* same-host channel tables (the ``transport`` column): ``shm``
  — loopback TCP plus the same-host bulk paths for payloads at or above
  the eager limit: the single-copy get of :mod:`repro.transport.cma`
  where the pair's probes passed, else the shared-memory lanes of
  :mod:`repro.transport.shm` — and ``tcp`` — loopback TCP alone, forced
  with ``REPRO_SHM=0``, which is the baseline they are measured
  against.  Every wire row records which path each pair actually had
  (``bulk_paths``: ``cma`` | ``ring`` | ``socket`` per directed pair) —
  it is observed at bootstrap, not configured, so the artifact has to
  say it.

The DM backends run under three protocol settings — ``auto`` (the default
eager/rendezvous threshold), ``eager`` (threshold forced above every
size) and ``rendezvous`` (threshold forced to 1 byte) — so the crossover
between the two is visible in the data, not folklore.

Two buffer layouts are swept (the ``layout`` column):

* ``contiguous`` — a dense byte buffer, the classic kernel;
* ``strided``    — one ``Vector`` datatype instance per message
  (:data:`~repro.bench.pingpong.STRIDED_BLOCK_ELEMS`-element float64
  runs at 50% density),
  proving the layout-IR datapath: derived-datatype messages ride the
  same zero-copy iovec send / direct-landing receive machinery as
  contiguous ones.

Results land in ``BENCH_P2P.json`` (schema ``repro-p2p/3``); a committed
copy at the repo root seeds the performance trajectory, and the CI bench
smoke job regenerates a reduced sweep per push.  Usage::

    PYTHONPATH=src python -m repro.bench.p2p --out BENCH_P2P.json
    PYTHONPATH=src python -m repro.bench.p2p --quick --out BENCH_P2P.json
    PYTHONPATH=src python -m repro.bench.p2p --validate BENCH_P2P.json
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from repro.bench.pingpong import BACKENDS, measure
from repro.bench.report import provenance

SCHEMA = "repro-p2p/3"

#: full sweep: 8 B – 4 MB, dense around the eager/rendezvous band
FULL_SIZES = (8, 32, 128, 512, 2048, 8192, 32768, 65536, 131072,
              262144, 524288, 1048576, 2097152, 4194304)
QUICK_SIZES = (8, 8192, 262144, 1048576)

LAYOUTS = ("contiguous", "strided")

#: strided sweep sizes, in *data* bytes; the smallest implies >= 2 runs
STRIDED_SIZES = (65536, 131072, 262144, 524288, 1048576, 2097152,
                 4194304)
STRIDED_QUICK_SIZES = (65536, 1048576)

#: the carrier under each row (the ``transport`` column): ``inproc`` —
#: direct handoff (threads-SM), ``tcp`` — kernel sockets (threads-DM
#: socketpairs, or the procs-DM loopback mesh under ``REPRO_SHM=0``),
#: ``shm`` — the same mesh plus shared-memory bulk lanes (procs-DM
#: default)
TRANSPORT_KINDS = ("inproc", "tcp", "shm")

#: protocol knob -> forced eager limit (None = leave the default)
PROTOCOLS = {"auto": None, "eager": 1 << 62, "rendezvous": 1}

#: timed trials per (size, protocol); the best is reported, which filters
#: scheduler noise (the box may be a single shared core)
TRIALS = 5


def reps_for(size: int, quick: bool = False) -> int:
    base = max(10, min(400, (1 << 22) // max(size, 256)))
    return max(3, base // 8) if quick else base


def run_sweep(sizes=FULL_SIZES, backends=BACKENDS,
              protocols=("auto", "eager", "rendezvous"),
              layouts=LAYOUTS, strided_sizes=None,
              quick: bool = False, log=print) -> list[dict]:
    """Run the sweep; returns rows of the ``results`` schema array.

    The strided layout runs under the ``auto`` protocol only (the
    protocol crossover is characterized by the contiguous sweep; the
    strided sweep answers "do derived datatypes keep up", and its
    ``size_bytes`` are *data* bytes, excluding the stride gaps).
    """
    if strided_sizes is None:
        strided_sizes = STRIDED_QUICK_SIZES if quick else STRIDED_SIZES
    rows = []
    for backend in backends:
        # procs-DM runs with and without the same-host bulk lanes:
        # loopback TCP alone (REPRO_SHM=0) is their baseline
        transports = {"procs-DM": ("shm", "tcp"),
                      "threads-SM": ("inproc",)}.get(backend, ("tcp",))
        for transport in transports:
            for layout in layouts:
                # SM has no wire protocol: one pass, recorded as
                # "auto"; the strided sweep is auto-only by design
                backend_protocols = ("auto",) \
                    if backend == "threads-SM" or layout == "strided" \
                    else protocols
                lay_sizes = sizes if layout == "contiguous" \
                    else strided_sizes
                for protocol in backend_protocols:
                    limit = PROTOCOLS[protocol]
                    reps_list = [reps_for(s, quick) for s in lay_sizes]
                    got, paths = measure(backend, "capi", lay_sizes,
                                         reps_list, layout, TRIALS, limit,
                                         carrier=transport)
                    for (size, one_way), reps in zip(got, reps_list):
                        rows.append({
                            "backend": backend, "transport": transport,
                            "protocol": protocol, "layout": layout,
                            "size_bytes": int(size), "reps": int(reps),
                            "one_way_us": round(one_way * 1e6, 3),
                            "bandwidth_MBps":
                                round(size / one_way / 1e6, 2)
                                if one_way > 0 else 0.0,
                        })
                        if paths:
                            rows[-1]["bulk_paths"] = paths
                    if log:
                        peak = max(r["bandwidth_MBps"] for r in rows
                                   if r["backend"] == backend
                                   and r["transport"] == transport
                                   and r["protocol"] == protocol
                                   and r["layout"] == layout)
                        log(f"  {backend:>10} / {transport:<6} / "
                            f"{layout:<10} / {protocol:<10} peak "
                            f"{peak:9.1f} MB/s")
    return rows


def shm_speedup_vs_tcp(rows) -> dict:
    """Per-(layout, size) procs-DM bandwidth factors: shm over the
    loopback-TCP baseline, ``auto`` protocol rows."""
    tcp = {(r["layout"], r["size_bytes"]): r["bandwidth_MBps"]
           for r in rows if r["backend"] == "procs-DM"
           and r.get("transport") == "tcp" and r["protocol"] == "auto"}
    out: dict[str, dict[str, float]] = {lay: {} for lay in LAYOUTS}
    for r in rows:
        if r["backend"] != "procs-DM" or r.get("transport") != "shm" \
                or r["protocol"] != "auto":
            continue
        key = (r["layout"], r["size_bytes"])
        if tcp.get(key):
            out[r["layout"]][str(r["size_bytes"])] = round(
                r["bandwidth_MBps"] / tcp[key], 2)
    return out


def carry_baseline(baseline: dict, rows) -> dict:
    """Refresh a report's ``baseline`` section against new sweep rows.

    The recorded pre-PR rows are the fixed anchor of the perf
    trajectory; regenerating the sweep keeps them and recomputes the
    per-(layout, size) improvement factors from the fresh threads-DM
    ``auto`` measurements, so ``--out`` over an existing artifact stays
    self-consistent (and keeps passing ``benchmarks/test_p2p.py``).
    Baseline rows without a ``layout`` field are contiguous (they
    predate the strided sweep).
    """
    base_by_key = {(r.get("layout", "contiguous"), r["size_bytes"]): r
                   for r in baseline.get("results", ())}
    improv = {"contiguous": {}, "strided": {}}
    for r in rows:
        key = (r.get("layout", "contiguous"), r["size_bytes"])
        if r["backend"] == "threads-DM" and r["protocol"] == "auto" \
                and key in base_by_key:
            improv[key[0]][str(r["size_bytes"])] = round(
                r["bandwidth_MBps"]
                / base_by_key[key]["bandwidth_MBps"], 2)
    out = dict(baseline)
    out["improvement_vs_baseline_threads_DM"] = improv["contiguous"]
    out["improvement_vs_baseline_threads_DM_strided"] = improv["strided"]
    return out


def build_report(rows, quick: bool = False,
                 baseline: dict | None = None) -> dict:
    from repro.transport.wire import eager_limit
    report = {
        "schema": SCHEMA,
        **provenance(),
        "quick": bool(quick),
        "eager_limit_default": eager_limit(),
        "results": rows,
    }
    speedup = shm_speedup_vs_tcp(rows)
    if any(speedup.values()):
        report["shm_speedup_vs_procs_tcp"] = speedup
    if baseline is not None:
        report["baseline"] = baseline
    return report


def validate_report(report: dict) -> list[str]:
    """Schema check; returns a list of problems (empty = valid)."""
    problems = []
    if not isinstance(report, dict):
        return ["report is not an object"]
    if report.get("schema") != SCHEMA:
        problems.append(f"schema != {SCHEMA!r}")
    for field in ("created_unix", "python", "cpus",
                  "eager_limit_default", "results"):
        if field not in report:
            problems.append(f"missing field {field!r}")
    rows = report.get("results", [])
    if not isinstance(rows, list) or not rows:
        problems.append("results must be a non-empty array")
        rows = []
    for i, row in enumerate(rows):
        for field, typ in (("backend", str), ("transport", str),
                           ("protocol", str), ("layout", str),
                           ("size_bytes", int), ("reps", int),
                           ("one_way_us", (int, float)),
                           ("bandwidth_MBps", (int, float))):
            if not isinstance(row.get(field), typ):
                problems.append(f"results[{i}].{field} missing/mistyped")
                break
        else:
            if row["backend"] not in BACKENDS:
                problems.append(f"results[{i}].backend unknown: "
                                f"{row['backend']!r}")
            if row["transport"] not in TRANSPORT_KINDS:
                problems.append(f"results[{i}].transport unknown: "
                                f"{row['transport']!r}")
            if row["protocol"] not in PROTOCOLS:
                problems.append(f"results[{i}].protocol unknown: "
                                f"{row['protocol']!r}")
            if row["layout"] not in LAYOUTS:
                problems.append(f"results[{i}].layout unknown: "
                                f"{row['layout']!r}")
            if row["size_bytes"] <= 0 or row["one_way_us"] <= 0:
                problems.append(f"results[{i}] non-positive measurement")
    return problems


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(prog="repro.bench.p2p", description=__doc__)
    ap.add_argument("--quick", action="store_true",
                    help="reduced sweep (CI smoke): few sizes, fewer reps")
    ap.add_argument("--out", default="BENCH_P2P.json")
    ap.add_argument("--backends", default=",".join(BACKENDS),
                    help=f"comma list from {BACKENDS}")
    ap.add_argument("--validate", metavar="FILE",
                    help="validate an existing report and exit")
    opts = ap.parse_args(argv)

    if opts.validate:
        with open(opts.validate) as fh:
            problems = validate_report(json.load(fh))
        for p in problems:
            print(f"INVALID: {p}", file=sys.stderr)
        print(f"{opts.validate}: " +
              ("ok" if not problems else f"{len(problems)} problem(s)"))
        return 1 if problems else 0

    backends = tuple(b.strip() for b in opts.backends.split(",") if b)
    for b in backends:
        if b not in BACKENDS:
            ap.error(f"unknown backend {b!r} (have {BACKENDS})")
    sizes = QUICK_SIZES if opts.quick else FULL_SIZES
    print(f"p2p sweep: sizes {sizes[0]}..{sizes[-1]} B on "
          f"{', '.join(backends)}")
    rows = run_sweep(sizes=sizes, backends=backends, quick=opts.quick)
    # regenerating over an existing artifact: keep its recorded pre-PR
    # baseline (the trajectory anchor), refresh the improvement factors
    baseline = None
    if os.path.exists(opts.out):
        try:
            with open(opts.out) as fh:
                prior = json.load(fh)
            if isinstance(prior, dict) and "baseline" in prior:
                baseline = carry_baseline(prior["baseline"], rows)
        except (OSError, ValueError):
            pass
    report = build_report(rows, quick=opts.quick, baseline=baseline)
    problems = validate_report(report)
    if problems:  # pragma: no cover - the generator matches its schema
        for p in problems:
            print(f"INTERNAL SCHEMA ERROR: {p}", file=sys.stderr)
        return 2
    with open(opts.out, "w") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"wrote {opts.out} ({len(rows)} rows)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
