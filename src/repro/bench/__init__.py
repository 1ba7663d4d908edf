"""Benchmark harness reproducing the paper's evaluation (§4).

* :mod:`repro.bench.pingpong` — the PingPong kernel (paper §4.2): one
  timed loop at the OO binding ("J"), the stub calls ("C") or the runtime
  below them, one SPMD sweep and one launcher under every producer here.
  The raw transport echo ("Wsock") is in :mod:`repro.bench.environments`.
* :mod:`repro.bench.environments` — the seven benchmark environments of
  Table 1, in *modeled* (virtual clock calibrated to the paper) and
  *measured* (wall clock on live transports) timing modes.
* :mod:`repro.bench.table1`, :mod:`repro.bench.figures` — regenerate
  Table 1 and Figures 5/6 (``python -m repro.bench.table1`` etc.).
* :mod:`repro.bench.linpack` — the §4.6 native-vs-VM LinPack aside.
"""

from repro.bench.pingpong import PingPongResult, run_pingpong
from repro.bench.environments import BenchEnv, ENV_TABLE

__all__ = ["PingPongResult", "run_pingpong", "BenchEnv", "ENV_TABLE"]
