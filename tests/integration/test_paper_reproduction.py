"""The paper's evaluation claims, verified end-to-end (modeled timing).

Each test corresponds to a sentence in §4 of the paper; EXPERIMENTS.md
records the full number-for-number comparison.
"""

import numpy as np
import pytest

from repro.bench.environments import make_env
from repro.bench.pingpong import run_pingpong
from repro.bench.linpack import run_linpack
from repro.bench.table1 import generate_table1
from repro.transport.netmodel import PAPER_TABLE1


@pytest.fixture(scope="module")
def table1():
    return generate_table1(timing="modeled")


class TestTable1:
    def test_all_published_cells_within_two_percent(self, table1):
        for (mode, label), paper_us in PAPER_TABLE1.items():
            ours = table1[(mode, label)] * 1e6
            assert ours == pytest.approx(paper_us, rel=0.02), \
                f"{mode} {label}: ours {ours:.1f}us vs paper {paper_us}us"

    def test_linux_columns_blank_like_the_paper(self, table1):
        for mode in ("SM", "DM"):
            assert table1[(mode, "Linux-C")] is None
            assert table1[(mode, "Linux-J")] is None

    def test_sm_wrapper_overheads(self, table1):
        """§4.3: mpiJava adds 94us (140%) over WMPI-C and 226us (152%)
        over MPICH-C in SM."""
        wmpi = (table1[("SM", "WMPI-J")] - table1[("SM", "WMPI-C")]) * 1e6
        mpich = (table1[("SM", "MPICH-J")]
                 - table1[("SM", "MPICH-C")]) * 1e6
        assert wmpi == pytest.approx(94, abs=6)
        assert mpich == pytest.approx(226, abs=10)

    def test_dm_wrapper_overheads(self, table1):
        """§4.3: in DM the wrapper adds 66us (11%) and 282us (42%)."""
        wmpi_c = table1[("DM", "WMPI-C")]
        delta = (table1[("DM", "WMPI-J")] - wmpi_c) / wmpi_c
        assert delta == pytest.approx(0.11, abs=0.03)
        mpich_c = table1[("DM", "MPICH-C")]
        delta2 = (table1[("DM", "MPICH-J")] - mpich_c) / mpich_c
        assert delta2 == pytest.approx(0.42, abs=0.05)

    def test_wsock_is_dm_floor(self, table1):
        """Wsock (no MPI stack) is the fastest DM environment."""
        wsock = table1[("DM", "Wsock")]
        for label in ("WMPI-C", "WMPI-J", "MPICH-C", "MPICH-J"):
            assert table1[("DM", label)] > wsock

    def test_wmpi_beats_mpich_everywhere(self, table1):
        """§5.2: 'WMPI on NT out performs MPICH on Solaris'."""
        for mode in ("SM", "DM"):
            for api in ("C", "J"):
                assert table1[(mode, f"WMPI-{api}")] < \
                    table1[(mode, f"MPICH-{api}")]


@pytest.fixture(scope="module")
def figure5():
    sizes = [2 ** k for k in range(0, 21, 2)]
    return {
        label: run_pingpong(make_env(platform, "SM", api, "modeled"),
                            sizes=sizes)
        for platform, api, label in (
            ("WMPI", "capi", "WMPI-C"), ("WMPI", "mpijava", "WMPI-J"),
            ("MPICH", "capi", "MPICH-C"), ("MPICH", "mpijava", "MPICH-J"))
    }


class TestFigure5:
    def test_wmpi_c_peak_65mbs_at_64k(self, figure5):
        size, bw = figure5["WMPI-C"].peak_bandwidth()
        assert size == 64 * 1024
        assert bw == pytest.approx(65e6, rel=0.05)

    def test_wmpi_j_54mbs_at_64k(self, figure5):
        assert figure5["WMPI-J"].bandwidth_at(64 * 1024) == \
            pytest.approx(54e6, rel=0.05)

    def test_mpich_50mbs_still_rising_at_1m(self, figure5):
        r = figure5["MPICH-C"]
        assert r.bandwidth_at(1 << 20) == pytest.approx(50e6, rel=0.06)
        assert r.bandwidth_at(1 << 20) > r.bandwidth_at(1 << 18)

    def test_j_mirrors_c_with_constant_offset(self, figure5):
        """§4.4: 'the mpiJava curve mirrors that of C with an almost
        constant offset up to 8K'."""
        deltas = [figure5["WMPI-J"].time_at(s) - figure5["WMPI-C"].time_at(s)
                  for s in (1, 4, 16, 64, 256, 1024, 4096)]
        assert max(deltas) - min(deltas) < 12e-6

    def test_curves_converge_at_large_sizes(self, figure5):
        """§4.4: convergence by the 256K-1M range."""
        c = figure5["WMPI-C"].time_at(1 << 20)
        j = figure5["WMPI-J"].time_at(1 << 20)
        assert (j - c) / c < 0.05

    def test_c_always_at_least_as_fast(self, figure5):
        for s, tc, tj in zip(figure5["MPICH-C"].sizes,
                             figure5["MPICH-C"].times,
                             figure5["MPICH-J"].times):
            assert tj >= tc


@pytest.fixture(scope="module")
def figure6():
    sizes = [2 ** k for k in range(0, 21, 2)]
    return {
        label: run_pingpong(make_env(platform, "DM", api, "modeled"),
                            sizes=sizes)
        for platform, api, label in (
            ("WMPI", "capi", "WMPI-C"), ("WMPI", "mpijava", "WMPI-J"),
            ("MPICH", "capi", "MPICH-C"), ("MPICH", "mpijava", "MPICH-J"))
    }


class TestFigure6:
    def test_all_peak_about_1mbs(self, figure6):
        """§4.5: 'All curves peak at about 1 MByte/s, ... about 90% of
        the maximum attainable on 10 Mbps Ethernet'."""
        for label, r in figure6.items():
            _, bw = r.peak_bandwidth()
            assert 0.9e6 < bw < 1.25e6, label

    def test_differences_less_pronounced_than_sm(self, figure6):
        """§4.5: 'the differences between the MPI codes is not as
        pronounced as seen in SM'."""
        rel = (figure6["MPICH-J"].time_at(1024)
               - figure6["WMPI-C"].time_at(1024)) \
            / figure6["WMPI-C"].time_at(1024)
        assert rel < 0.6

    def test_wmpi_cj_very_similar_throughout(self, figure6):
        """§4.5: 'the C and mpiJava codes display very similar
        performance characteristics throughout the range tested'."""
        for s, tc, tj in zip(figure6["WMPI-C"].sizes,
                             figure6["WMPI-C"].times,
                             figure6["WMPI-J"].times):
            assert (tj - tc) / tc < 0.12

    def test_mpich_converges_by_4k(self, figure6):
        """§4.5: 'the curves converge at the 4K' (MPICH DM)."""
        c = figure6["MPICH-C"].time_at(4096)
        j = figure6["MPICH-J"].time_at(4096)
        assert (j - c) / c < 0.08


class TestLinpack:
    def test_native_beats_vm_by_paper_margin(self):
        """§4.6: native LinPack 62 Mflop/s vs JVM 22 Mflop/s (2.8x).

        CPython's interpreter penalty is larger than a 1998 JIT JVM's, so
        we assert the *direction and at least the paper's margin*, not the
        exact ratio (see EXPERIMENTS.md).
        """
        r = run_linpack(n=120, trials=1)
        assert r.native_mflops > r.vm_mflops
        assert r.ratio > 2.8


def _median_gap(env_fast, env_slow, size, reps, runs=7):
    """Median of *paired* (slow − fast) time differences over ``runs``.

    A single wall-clock sweep is at the mercy of scheduler noise (these
    compare differences down to a few microseconds), and sequential
    phases pick up machine drift.  Sampling the two environments
    back-to-back and taking the median of the paired differences cancels
    both, which keeps the ordering assertions deterministic.
    """
    gaps = []
    for _ in range(runs):
        fast = run_pingpong(make_env(*env_fast, "measured"),
                            sizes=(size,), reps=reps).times[0]
        slow = run_pingpong(make_env(*env_slow, "measured"),
                            sizes=(size,), reps=reps).times[0]
        gaps.append(slow - fast)
    return float(np.median(gaps))


class TestMeasuredShape:
    """The same qualitative claims on *live* wall-clock transports.

    All assertions use medians of paired differences over repeated runs —
    see :func:`_median_gap`.
    """

    def test_measured_j_overhead_positive_sm(self):
        # OO binding really is slower per call than direct stub calls
        assert _median_gap(("WMPI", "SM", "capi"),
                           ("WMPI", "SM", "mpijava"),
                           size=1, reps=300) > 0

    def test_counted_layer_order_sm(self):
        """The exact sibling of the sign test above: Python calls per
        1-byte round trip of ``bench.pingpong.one_way`` on threads-SM, in
        rank 0's thread.  Each layer wraps the one below, so the binding
        costs more calls than the stubs, and the stubs more than the
        runtime — whatever the box's speed."""
        import threading
        from repro.bench.pingpong import one_way
        from repro.datatypes.primitives import BYTE
        from repro.executor.runner import MPIExecutor
        from repro.jni import handles as H
        from repro.mpijava import MPI
        reps = 50
        calls = {}

        def body():
            MPI.Init([])
            rank = MPI.COMM_WORLD.Rank()
            me = threading.current_thread().name
            buf = np.zeros(1, dtype=np.int8)
            counts = {}
            for api, dt in (("mpijava", MPI.BYTE), ("capi", H.DT_BYTE),
                            ("communicator", BYTE)):
                calls[me] = 0
                one_way(api, rank, buf, 1, dt, reps)
                counts[api] = calls[me] / reps
            MPI.Finalize()
            return counts

        def profile(frame, event, arg):
            if event == "call":
                name = threading.current_thread().name
                if name in calls:
                    calls[name] += 1

        threading.setprofile(profile)
        try:
            with MPIExecutor(2, transport="inproc") as ex:
                per_rank = ex.run(body, timeout=60.0)
        finally:
            threading.setprofile(None)
        counts = per_rank[0]
        assert counts["mpijava"] > counts["capi"] > counts["communicator"], \
            counts

    def test_measured_dm_slower_than_sm(self):
        assert _median_gap(("WMPI", "SM", "capi"),
                           ("WMPI", "DM", "capi"),
                           size=1, reps=200) > 0

    def test_measured_chunked_slower_than_fast_path(self):
        assert _median_gap(("WMPI", "SM", "capi"),
                           ("MPICH", "SM", "capi"),
                           size=1 << 16, reps=30) > 0
