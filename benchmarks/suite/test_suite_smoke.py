"""Smoke test of the benchmark suite: ``run.py --smoke`` end to end, its
results file checked against ``BENCHMARK.json``.

Not part of tier-1 (``testpaths = ["tests"]``); run it with
``python -m pytest benchmarks/suite -q``.
"""

import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}\Z")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}\Z")


@pytest.fixture(scope="module")
def spec():
    with open(ROOT / "BENCHMARK.json") as f:
        return json.load(f)


@pytest.fixture(scope="module")
def smoke(tmp_path_factory):
    out = tmp_path_factory.mktemp("suite") / "smoke.json"
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--smoke", "--seed", "5",
         "--out", str(out)],
        cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr[-4000:]
    with open(out) as f:
        return json.load(f), out.with_suffix(".trace.json"), proc.stdout


def test_benchmark_json_meets_the_contract(spec):
    assert set(spec) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert spec["paths"] == ["benchmarks/suite"]
    assert 1 <= spec["run_seconds"] <= 60
    assert 2 <= len(spec["workloads"]) <= 8
    assert 1 <= len(spec["end_to_end"]) <= 16
    assert 1 <= len(spec["per_layer"]) <= 128
    names = [w["name"] for w in spec["workloads"]] \
        + [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    assert len(names) == len(set(names))
    assert all(NAME.match(n) for n in names)
    for w in spec["workloads"]:
        assert set(w) == {"name", "why"}
        assert len(w["why"]) <= 200 and "\n" not in w["why"]
    for m in spec["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"}
        assert 0 < m["bound"] <= 0.25
    for m in spec["per_layer"]:
        assert set(m) == {"name", "unit", "better"}
    for m in spec["end_to_end"] + spec["per_layer"]:
        assert UNIT.match(m["unit"]) and m["better"] in ("lower", "higher")
    assert {"name": "setup_s", "unit": "s", "better": "lower"}.items() \
        <= next(m for m in spec["end_to_end"]
                if m["name"] == "setup_s").items()


def test_smoke_results_cover_every_workload_and_metric(spec, smoke):
    results, _, stdout = smoke
    for key in ("seed", "git_sha", "cpus", "ranks", "python", "numpy",
                "env"):
        assert key in results
    for w in spec["workloads"]:
        name = w["name"]
        rec = results["workloads"][name]
        assert rec["failed"] == 0 and rec["attempted"] > 0, rec["errors"]
        assert rec["metrics"]["failed_share"]["value"] == 0
        for m in spec["end_to_end"]:
            got = rec["metrics"][m["name"]]
            assert got["unit"] == m["unit"] and got["value"] > 0, m
            assert f"{m['name']} " in stdout     # printed by name
        layers = {**results["layers"], **results["per_layer"][name]}
        assert set(layers) == {m["name"] for m in spec["per_layer"]}
        for m in spec["per_layer"]:
            assert layers[m["name"]]["unit"] == m["unit"], m
        assert results["per_layer_tally"][name]["failed"] == 0
        assert results["ranks"][name] >= 2


def test_smoke_ladder_keeps_the_papers_ordering(smoke):
    layers = smoke[0]["layers"]
    rungs = [layers[n]["value"] for n in (
        "ladder.mpijava_us", "ladder.capi_us", "ladder.communicator_us",
        "floor.queue_echo_us")]
    # adjacent binding layers differ by a few percent, so at smoke sample
    # counts only the coarse shape is asserted: every rung above the floor
    assert min(rungs[:3]) > rungs[3]


def test_smoke_chrome_trace_loads(spec, smoke):
    with open(smoke[1]) as f:
        trace = json.load(f)
    lanes = {e["args"]["name"] for e in trace["traceEvents"]
             if e["ph"] == "M"}
    assert lanes == {w["name"] for w in spec["workloads"]}
    spans = [e for e in trace["traceEvents"] if e["ph"] == "X"]
    assert spans and all("op" in e["args"] and e["dur"] >= 0
                         for e in spans)
