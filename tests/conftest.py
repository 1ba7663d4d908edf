"""Shared test fixtures: SPMD runner and transport parametrization.

The IBM-suite tests run in both of the paper's §3.4 modes:

* SM — multiple ranks in shared memory (``inproc`` transport);
* DM — ranks behind kernel sockets (``socket`` transport).
"""

from __future__ import annotations

import pytest

from repro import mpirun
from repro.mpijava import MPI

#: the paper's two execution modes
MODES = {"SM": "inproc", "DM": "socket"}


@pytest.fixture(params=sorted(MODES), ids=sorted(MODES))
def mode_transport(request):
    """Transport name for each of the paper's SM/DM modes."""
    return MODES[request.param]


@pytest.fixture
def cma_capable(monkeypatch):
    """Same-host pairs built in this test take the single-copy get: no
    capability probe is denied by the environment (CI runs some files
    under a denying ``REPRO_FAULT`` too), and the test skips where the
    kernel itself refuses ``process_vm_readv``."""
    from repro.transport import cma
    monkeypatch.delenv("REPRO_FAULT", raising=False)
    if not cma.probe(0, *cma.advert()):
        pytest.skip("process_vm_readv is not usable here")


@pytest.fixture
def cma_denied(monkeypatch):
    """Neither rank of a 2-rank world built in this test passes its
    capability probe: bulk bodies take the shared-memory ring, as where
    the kernel refuses ``process_vm_readv``."""
    monkeypatch.setenv("REPRO_FAULT", "cma.probe:0::deny,cma.probe:1::deny")


@pytest.fixture
def waiters_built(monkeypatch):
    """Every ``requests.Waiter`` constructed while the test runs (its
    ``need``), from any thread: one per sleep, none for a request that
    was already done."""
    from repro.runtime import requests as mod
    built = []

    class Counting(mod.Waiter):
        __slots__ = ()

        def __init__(self, need=1):
            super().__init__(need)
            built.append(need)

    monkeypatch.setattr(mod, "Waiter", Counting)
    return built


def window(t, count):
    """``(lo, hi)``: how far below and above its origin ``count``
    instances of ``t`` reach — read off the flat index map, the
    datapath's reference, so a buffer of ``lo + hi`` elements used at
    offset ``lo`` holds them exactly."""
    idx = t.flat_indices(count)
    if len(idx) == 0:
        return 0, 0
    return -min(0, int(idx.min())), max(0, int(idx.max()) + 1)


def spmd(fn):
    """Wrap a test body with MPI.Init/Finalize, as every program must."""
    def body(*args):
        MPI.Init([])
        try:
            return fn(*args)
        finally:
            MPI.Finalize()
    body.__name__ = getattr(fn, "__name__", "spmd_body")
    return body


def run(nprocs, fn, transport="inproc", args=(), timeout=60.0,
        init=True):
    """Run an SPMD body on ``nprocs`` ranks; returns per-rank results."""
    body = spmd(fn) if init else fn
    return mpirun(nprocs, body, args=args, transport=transport,
                  timeout=timeout)
