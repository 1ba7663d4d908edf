"""Modeled Table 1 and Figures 5/6, pinned byte for byte.

Modeled timing charges the calibrated cost model to a virtual clock, so
its printed output is a deterministic function of the message pattern
and the model.  A refactor of the binding, the runtime or the benchmark
kernel must leave it unchanged; the files under ``data/`` are the
reference output of the two CLIs.  To re-pin after an intended change
to the model, regenerate them with the commands in ``GOLDEN``.
"""

import os
import pathlib
import subprocess
import sys

import pytest

DATA = pathlib.Path(__file__).parent / "data"
SRC = pathlib.Path(__file__).resolve().parents[2] / "src"

GOLDEN = {
    "table1_modeled.txt": ["repro.bench.table1", "--timing", "modeled"],
    "figures_modeled_step1.csv": ["repro.bench.figures", "--timing",
                                  "modeled", "--step", "1", "--csv"],
}


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_modeled_output_is_byte_identical(name):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    out = subprocess.run([sys.executable, "-m", *GOLDEN[name]],
                         env=env, capture_output=True, timeout=120,
                         check=True).stdout
    assert out == (DATA / name).read_bytes()
