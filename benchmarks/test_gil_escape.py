"""GIL-escape claims: process ranks compute in parallel, thread ranks don't.

Two tiers:

* structural checks that run anywhere — the sweep executes on all three
  backends and the thread backends are GIL-bound (job time scales with
  nprocs, not cores);
* the headline >=2x speedup of procs-DM over the best thread backend,
  which physically requires cores, so it skips below 4 schedulable CPUs
  (the committed ``BENCH_GIL_ESCAPE.json`` records the measuring host's
  ``cpu_affinity`` next to its numbers for exactly this reason).
"""

import pytest

from repro import config
from repro.bench.gil_escape import (run_benchmark, run_compute,
                                    usable_cores)

#: small enough to keep the suite quick, big enough to dominate overhead
ITERS = 1_500_000


@pytest.fixture(scope="module")
def report():
    return run_benchmark(nprocs=4, iters=ITERS, pingpong=False)


class TestAllBackendsExecute:
    def test_report_is_stamped_with_its_provenance(self, report):
        assert report["config"] == config.effective()
        assert "git_sha" in report and "cpus" in report

    def test_checksums_agree_across_backends(self, report):
        sums = {b["checksum"] for b in report["compute"].values()}
        assert len(sums) == 1, f"backends computed different jobs: {sums}"

    def test_thread_backends_are_gil_bound(self, report):
        # 4 compute-bound rank-threads behind one GIL serialize: the job
        # takes ~4x the serial kernel regardless of core count
        assert report["gil_bound_threads"] > 2.5

    def test_process_backend_not_slower_than_threads(self, report):
        # even on one core, process ranks must not regress materially
        # (mesh + spawn overhead is outside the measured kernel span)
        t_threads = report["compute"]["threads-SM"]["job_seconds"]
        t_procs = report["compute"]["procs-DM"]["job_seconds"]
        assert t_procs < t_threads * 1.5


@pytest.mark.skipif(usable_cores() < 4,
                    reason="GIL-escape speedup needs >= 4 schedulable "
                           "cores")
class TestSpeedup:
    def test_procs_at_least_2x_faster_than_threads(self, report):
        assert report["speedup_procs_vs_best_threads"] >= 2.0


class TestSmallJob:
    def test_two_rank_process_job(self):
        out = run_compute("procs-DM", 2, 200_000, timeout=60.0)
        assert len(out["per_rank_seconds"]) == 2
