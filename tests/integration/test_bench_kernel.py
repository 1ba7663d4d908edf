"""The one PingPong kernel under every ``repro.bench`` producer.

What a benchmark reports is only worth what its kernel does: it must time
the layer it names and nothing else, move the bytes it claims to move,
and leave the process it ran in as it found it.
"""

import os

import numpy as np
import pytest

from repro.bench.pingpong import launch, sweep
from repro.executor.runner import RankFailure
from repro.mpijava import MPI, CountingProfiler
from repro.runtime.engine import Universe
from repro.runtime.envelope import KIND_DATA
from repro.transport.chunked import ChunkedTransport


def test_the_binding_column_times_no_probe_spin():
    """Rank 1 waits for the first ping and for the release in a blocking
    ``Probe``: a busy ``Iprobe`` loop held the GIL inside rank 0's timed
    window and read as binding cost (measured J - C 14-17 us at 1 B on
    threads-SM, against 4-6 us without the spin)."""
    prof = MPI.attach_profiler(CountingProfiler())
    try:
        launch("threads-SM", 2, sweep,
               ("mpijava", (8,), (5,), "contiguous", 2))
    finally:
        MPI.detach_profiler(prof)
    counts = prof.counts()
    assert counts.get("Iprobe", 0) == 0, counts
    assert counts["Probe"] == 2 * 2        # rank 1: ping, release per trial
    assert counts["Send"] == counts["Recv"] == 2 * (2 * 5 + 1)


@pytest.mark.parametrize("setting", ["1", None])
def test_a_procs_job_leaves_REPRO_SHM_as_it_found_it(monkeypatch, setting):
    if setting is None:
        monkeypatch.delenv("REPRO_SHM", raising=False)
    else:
        monkeypatch.setenv("REPRO_SHM", setting)
    ranks = launch("procs-DM", 2, sweep, ("capi", (8,), (2,)),
                   carrier="tcp", timeout=60.0)
    assert os.environ.get("REPRO_SHM") == setting
    assert set(ranks[0][1].values()) == {"socket"}     # tcp was pinned


class FlipsAByte(ChunkedTransport):
    """The packetized path, flipping one byte of every payload of 64 B or
    more that rank 0 sends (rank 1 echoes it, so the round trip cannot
    flip it back)."""

    def send(self, env):
        if env.kind == KIND_DATA and env.src == 0 \
                and env.payload is not None:
            env.payload = self._stage(env.payload)
            if getattr(env.payload, "nbytes", 0) >= 64:
                env.payload.view(np.uint8)[0] ^= 1
        super().send(env)


@pytest.mark.parametrize("layout, size", [("contiguous", 64),
                                          ("strided", 65536)])
def test_the_kernel_checks_the_data_it_moved(layout, size):
    args = ("capi", (size,), (2,), layout)
    rows, _ = launch("threads-SM", 2, sweep, args,
                     universe=Universe(2, transport=ChunkedTransport(2)))[0]
    assert rows[0][1] > 0
    with pytest.raises(RankFailure, match="other than rank 0 sent"):
        launch("threads-SM", 2, sweep, args,
               universe=Universe(2, transport=FlipsAByte(2)), timeout=30.0)
