"""The p2p sweep stays runnable and its artifact stays valid.

The committed ``BENCH_P2P.json`` seeds the perf trajectory; a stale or
malformed artifact (or a sweep that can no longer run) should fail here,
not at the next person trying to reproduce the numbers.
"""

import json
import pathlib

from repro import config
from repro.bench import p2p

REPO_ROOT = pathlib.Path(__file__).resolve().parents[1]


def test_a_new_report_is_stamped_with_its_provenance():
    """Beside ``cpus``: the revision and the effective settings, which
    the committed file (older than the stamp) lacks and still passes."""
    row = dict(backend="threads-SM", transport="inproc", protocol="auto",
               layout="contiguous", size_bytes=8, reps=1, one_way_us=1.0,
               bandwidth_MBps=8.0)
    report = p2p.build_report([row])
    assert report["config"] == config.effective()
    assert "git_sha" in report and "cpus" in report
    assert p2p.validate_report(report) == []


class TestCommittedArtifact:
    def test_committed_report_is_valid(self):
        path = REPO_ROOT / "BENCH_P2P.json"
        assert path.exists(), "BENCH_P2P.json missing from repo root"
        report = json.loads(path.read_text())
        assert p2p.validate_report(report) == []

    def test_committed_report_covers_the_full_sweep(self):
        report = json.loads((REPO_ROOT / "BENCH_P2P.json").read_text())
        dm_auto = {r["size_bytes"] for r in report["results"]
                   if r["backend"] == "threads-DM"
                   and r["protocol"] == "auto"
                   and r["layout"] == "contiguous"}
        assert dm_auto.issuperset(p2p.FULL_SIZES)

    def test_committed_report_covers_the_strided_sweep(self):
        report = json.loads((REPO_ROOT / "BENCH_P2P.json").read_text())
        for backend in p2p.BACKENDS:
            strided = {r["size_bytes"] for r in report["results"]
                       if r["backend"] == backend
                       and r["layout"] == "strided"}
            assert strided.issuperset(p2p.STRIDED_SIZES), \
                f"{backend} strided sweep incomplete"

    def test_committed_report_covers_both_proc_transports(self):
        """procs-DM rows exist with the same-host bulk lanes and for
        their loopback-TCP-only baseline (REPRO_SHM=0)."""
        report = json.loads((REPO_ROOT / "BENCH_P2P.json").read_text())
        for transport in ("shm", "tcp"):
            for layout in p2p.LAYOUTS:
                got = {r["size_bytes"] for r in report["results"]
                       if r["backend"] == "procs-DM"
                       and r["transport"] == transport
                       and r["layout"] == layout
                       and r["protocol"] == "auto"}
                want = p2p.FULL_SIZES if layout == "contiguous" \
                    else p2p.STRIDED_SIZES
                assert got.issuperset(want), \
                    f"procs-DM/{transport}/{layout} sweep incomplete"

    def test_shm_is_never_behind_loopback_tcp(self):
        """ROADMAP's rule for the default same-host table — shm >= TCP
        at every size or not the default — as a bar, both layouts:
        within measurement noise of the loopback-TCP-only baseline at
        *every* size, and at least twice its bandwidth for every
        >= 4 MiB message.

        Below the eager limit both rows run the same code (every header
        and small body rides the pair's socket), so the factor there is
        1.0 give or take the box's run-to-run spread — hence 0.9, not
        1.0.  At and above it the receiver reads the payload straight
        out of the sender's memory (one copy, two frames; PR 14): the
        committed artifact shows 1.16 / 1.46 / 2.46x (contiguous) and
        1.35 / 1.82 / 2.56x (strided) at 1 / 2 / 4 MiB — at 1 MiB the
        copy is still a small part of the round trip, so the asserted
        win starts where copies dominate, with margin for regeneration
        noise.  (The shared-memory ring this replaced as the default
        measured 1.1-1.6x and was held to >= 1.05 at >= 1 MiB.)  The
        rows say which path they measured: a regenerated artifact whose
        shm rows did not get the single-copy get (a host that refuses
        ``process_vm_readv``) is held to the ring's bar instead."""
        report = json.loads((REPO_ROOT / "BENCH_P2P.json").read_text())
        speedup = report.get("shm_speedup_vs_procs_tcp", {})
        paths = {path for r in report["results"]
                 if r["backend"] == "procs-DM" and r["transport"] == "shm"
                 for path in r.get("bulk_paths", {}).values()}
        for layout in p2p.LAYOUTS:
            factors = {int(k): v for k, v in speedup.get(layout, {}).items()}
            want = p2p.FULL_SIZES if layout == "contiguous" \
                else p2p.STRIDED_SIZES
            assert set(want) <= set(factors), \
                f"shm speedup entries missing for {layout}"
            assert all(v >= 0.9 for v in factors.values()), \
                f"{layout} shm fell behind loopback TCP: {factors}"
            if paths == {"cma"}:
                large = {k: v for k, v in factors.items() if k >= 4194304}
                assert large and all(v >= 2.0 for v in large.values()), \
                    f"{layout} single-copy get stopped paying: {large}"
            else:
                large = {k: v for k, v in factors.items() if k >= 1048576}
                assert all(v >= 1.05 for v in large.values()), \
                    f"{layout} lanes stopped paying at MiB sizes: {large}"

    def test_procs_rows_say_which_bulk_path_they_measured(self):
        """The path is observed at bootstrap, not configured, so a
        number is only reproducible if the artifact records it: every
        procs-DM row names each directed pair's bulk path, and the tcp
        table never has one."""
        report = json.loads((REPO_ROOT / "BENCH_P2P.json").read_text())
        for r in report["results"]:
            if r["backend"] != "procs-DM":
                continue
            paths = r.get("bulk_paths")
            assert paths and set(paths) == {"0->1", "1->0"}, r
            if r["transport"] == "tcp":
                assert set(paths.values()) == {"socket"}, r
            else:
                assert set(paths.values()) <= {"cma", "ring"}, r
        anchor = report.get("procs_DM_reanchor", {})
        assert anchor.get("cpus") and anchor.get("bulk_paths"), anchor

    def test_procs_shm_approaches_threads_dm(self):
        """Cross-process same-host pairs must stay within 2x of
        same-process socketpairs at every >= 1 MiB contiguous size —
        the process-isolation penalty is bounded, not a cliff.  (On the
        one-CPU-confined measuring box, threads-DM dodges the
        cross-process context switches and TLB flushes every procs-DM
        message pays; the committed rows sit at 0.85x at 1 MiB, 1.0x at
        2 MiB and — one copy against the socketpair's two — 1.3x at
        4 MiB.)"""
        report = json.loads((REPO_ROOT / "BENCH_P2P.json").read_text())
        bw = {}
        for r in report["results"]:
            if r["protocol"] == "auto" and r["layout"] == "contiguous":
                bw[(r["backend"], r["transport"],
                    r["size_bytes"])] = r["bandwidth_MBps"]
        for size in (s for s in p2p.FULL_SIZES if s >= 1048576):
            shm = bw[("procs-DM", "shm", size)]
            thr = bw[("threads-DM", "tcp", size)]
            assert shm >= 0.5 * thr, \
                f"procs-DM/shm ({shm} MB/s) < half of threads-DM " \
                f"({thr} MB/s) at {size} B"

    def test_committed_report_carries_the_baseline(self):
        report = json.loads((REPO_ROOT / "BENCH_P2P.json").read_text())
        base = report.get("baseline", {})
        assert base.get("results"), "pre-PR baseline rows missing"
        improv = base.get("improvement_vs_baseline_threads_DM", {})
        large = {int(k): v for k, v in improv.items() if int(k) >= 262144}
        assert large, "no >=256KB improvement entries"
        assert all(v >= 2.0 for v in large.values()), \
            f"large-message speedup fell below 2x: {large}"

    def test_committed_report_proves_the_strided_win(self):
        """The layout-IR datapath acceptance bar: >= 1.5x bandwidth over
        the pre-IR baseline for every >= 256 KiB strided message on
        threads-DM (PR 5)."""
        report = json.loads((REPO_ROOT / "BENCH_P2P.json").read_text())
        improv = report["baseline"].get(
            "improvement_vs_baseline_threads_DM_strided", {})
        large = {int(k): v for k, v in improv.items() if int(k) >= 262144}
        assert large, "no >=256KB strided improvement entries"
        assert all(v >= 1.5 for v in large.values()), \
            f"strided speedup fell below 1.5x: {large}"


class TestLiveSweep:
    def test_reduced_sweep_runs_and_validates(self):
        rows = p2p.run_sweep(sizes=(8, 65536), backends=("threads-DM",),
                             protocols=("eager", "rendezvous"),
                             strided_sizes=(65536,),
                             quick=True, log=None)
        report = p2p.build_report(rows, quick=True)
        assert p2p.validate_report(report) == []
        # both protocols for both contiguous sizes + one strided row
        assert len(rows) == 5
        assert all(r["one_way_us"] > 0 for r in rows)
        assert any(r["layout"] == "strided" for r in rows)

    def test_validate_rejects_garbage(self):
        assert p2p.validate_report({}) != []
        assert p2p.validate_report({"schema": p2p.SCHEMA}) != []
        good = p2p.build_report([{
            "backend": "threads-DM", "transport": "tcp",
            "protocol": "auto", "layout": "contiguous",
            "size_bytes": 8, "reps": 3, "one_way_us": 1.0,
            "bandwidth_MBps": 8.0}])
        assert p2p.validate_report(good) == []
        for field, value in (("backend", "quantum-entanglement"),
                             ("layout", "diagonal"),
                             ("transport", "carrier-pigeon")):
            bad = json.loads(json.dumps(good))
            bad["results"][0][field] = value
            assert p2p.validate_report(bad) != []
        for field in ("layout", "transport"):
            missing = json.loads(json.dumps(good))
            del missing["results"][0][field]
            assert p2p.validate_report(missing) != []
