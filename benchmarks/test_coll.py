"""``BENCH_COLL.json`` is there, well-formed, and structurally right.

The committed artifact (``python -m repro.bench.coll``) puts each
collective's time beside its round model.  Times are this box's, on one
CPU, so nothing here asserts one: what is asserted is the schema, that
the sweep is complete, and the *structure* each algorithm's schedule
reported — communication rounds and messages per rank are properties of
the algorithm, the same on any machine, so they are also compared with
what the code builds today (an artifact the code has moved away from
fails here; frames on the wire are counted in
``tests/unit/test_path_length.py``).
"""

import json
import math
import pathlib

import numpy as np
import pytest

from repro import mpirun
from repro.bench import coll
from repro.runtime.collective import ALGORITHM_CHOICES

REPORT = json.loads((pathlib.Path(__file__).resolve().parents[1]
                     / "BENCH_COLL.json").read_text())
ROWS = REPORT["rows"]


def _row(collective, algorithm, p, nbytes, backend=coll.BACKENDS[1]):
    (row,) = [r for r in ROWS if (r["collective"], r["algorithm"], r["p"],
                                  r["bytes"], r["backend"])
              == (collective, algorithm, p, nbytes, backend)]
    return row


def test_schema_and_stamps():
    assert REPORT["schema"] == coll.SCHEMA
    assert REPORT["cpus"] >= 1 and REPORT["git_sha"]
    assert len(REPORT["config"]) == 9 and "REPRO_EAGER_LIMIT" in REPORT["config"]
    for row in ROWS:
        assert tuple(row) == coll.ROW_KEYS, row
        assert row["us"] > 0 and row["p2p_us"] > 0 and row["rounds"] >= 1, row
        assert row["model_us"] == pytest.approx(
            row["rounds"] * row["p2p_us"], rel=0.01, abs=0.2), row


def test_sweep_is_complete():
    """Every backend x p x size x algorithm of allreduce / bcast, both
    barriers, and alltoall at every size."""
    for backend in coll.BACKENDS:
        for p in (2, 4):
            for nbytes in coll.SIZES:
                for name in ("allreduce", "bcast"):
                    for algorithm in ALGORITHM_CHOICES[name]:
                        _row(name, algorithm, p, nbytes, backend)
                _row("alltoall", "pairwise", p, nbytes, backend)
            for algorithm in ALGORITHM_CHOICES["barrier"]:
                _row("barrier", algorithm, p, 0, backend)


@pytest.mark.parametrize("backend", coll.BACKENDS)
@pytest.mark.parametrize("p", [2, 4])
def test_structure_of_the_large_allreduces(backend, p):
    """256 KiB: the ring takes 2(p-1) rounds and sends as many messages
    per rank, recursive doubling log2 p of each; reduce + broadcast is
    2 log2 p deep and its busiest rank sends log2 p."""
    log2p = int(math.log2(p))
    nbytes = 256 * 1024
    ring = _row("allreduce", "ring", p, nbytes, backend)
    rd = _row("allreduce", "recursive_doubling", p, nbytes, backend)
    tree = _row("allreduce", "reduce_bcast", p, nbytes, backend)
    assert (ring["rounds"], ring["sends_per_rank"]) == (2 * (p - 1),
                                                        2 * (p - 1))
    assert (rd["rounds"], rd["sends_per_rank"]) == (log2p, log2p)
    assert (tree["rounds"], tree["sends_per_rank"]) == (2 * log2p, log2p)


@pytest.mark.parametrize("p", [2, 4])
def test_structure_of_the_small_collectives(p):
    log2p = int(math.log2(p))
    assert _row("barrier", "dissemination", p, 0)["rounds"] == log2p
    assert _row("bcast", "binomial", p, 8)["rounds"] == log2p
    assert _row("alltoall", "pairwise", p, 1024)["sends_per_rank"] == p - 1
    # one element cannot be scattered over p ranks: the ring falls back
    # to reduce + broadcast
    assert _row("allreduce", "ring", p, 8)["rounds"] \
        == _row("allreduce", "reduce_bcast", p, 8)["rounds"]


def structure_body(nbytes):
    """``{(collective, algorithm): (rounds, sends)}`` of the schedules
    this rank builds now (built on every rank, run on none: the tags
    stay in step)."""
    from repro.datatypes.primitives import DOUBLE
    from repro.runtime import nbc, reduce_ops
    from repro.runtime.collective import (algorithm_overrides, allreduce,
                                          barrier, bcast)
    from repro.runtime.engine import current_runtime
    comm = current_runtime().comm_world
    n = nbytes // 8
    a, b = np.ones(n), np.zeros(n)
    plans = {
        "allreduce": lambda: allreduce.plan_allreduce(
            comm, a, 0, b, 0, n, DOUBLE, reduce_ops.SUM),
        "bcast": lambda: bcast.plan_bcast(comm, a, 0, n, DOUBLE, 0),
        "barrier": lambda: barrier.plan_barrier(comm),
    }
    built = {}
    for name, plan in plans.items():
        for algorithm in ALGORITHM_CHOICES[name]:
            sched = nbc.Schedule()
            with algorithm_overrides(**{name: algorithm}):
                plan()[1](sched)
            built[name, algorithm] = coll.structure_of(sched)
    return built


@pytest.mark.parametrize("p", [2, 4])
def test_committed_structure_is_what_the_code_builds(p):
    nbytes = 256 * 1024
    per_rank = mpirun(p, structure_body, args=(nbytes,), transport="socket",
                      timeout=60.0)
    for name, algorithm in per_rank[0]:
        row = _row(name, algorithm, p, 0 if name == "barrier" else nbytes,
                   coll.BACKENDS[0])
        built = [max(rank[name, algorithm][k] for rank in per_rank)
                 for k in (0, 1)]
        assert [row["rounds"], row["sends_per_rank"]] == built, row
