"""Figure 5 — PingPong bandwidth in Shared Memory mode (paper §4.4)."""

import pytest

from repro.bench.environments import make_env
from repro.bench.figures import generate_figure
from repro.bench.pingpong import run_pingpong

SIZES = tuple(2 ** k for k in range(0, 21, 2))


def test_modeled_figure5_shapes(benchmark):
    results = benchmark(generate_figure, "SM", "modeled", 2)
    wmpi_c, wmpi_j = results["WMPI-C"], results["WMPI-J"]
    mpich_c, mpich_j = results["MPICH-C"], results["MPICH-J"]
    # §4.4 claims
    size, bw = wmpi_c.peak_bandwidth()
    assert size == 64 * 1024 and bw == pytest.approx(65e6, rel=0.05)
    assert wmpi_j.bandwidth_at(64 * 1024) == pytest.approx(54e6, rel=0.05)
    assert mpich_c.bandwidth_at(1 << 20) == pytest.approx(50e6, rel=0.06)
    # J mirrors C with a near-constant offset, converging at large sizes
    for r_c, r_j in ((wmpi_c, wmpi_j), (mpich_c, mpich_j)):
        assert all(tj >= tc for tc, tj in zip(r_c.times, r_j.times))
        assert (r_j.time_at(1 << 20) - r_c.time_at(1 << 20)) \
            / r_c.time_at(1 << 20) < 0.06


@pytest.mark.parametrize("api", ["capi", "mpijava"])
def test_measured_sm_sweep_point(benchmark, api):
    """Live 64 KB bandwidth on the SM fast path (this machine's Fig 5)."""
    env = make_env("WMPI", "SM", api, "measured")

    def sweep():
        return run_pingpong(env, sizes=(64 * 1024,), reps=40)

    result = benchmark(sweep)
    assert result.bandwidths[0] > 1e6  # sanity: at least 1 MB/s


def test_measured_mpich_path_slower(benchmark):
    """The packetized 'MPICH-like' path trails the fast path (paper's
    WMPI > MPICH ordering), measured live."""
    fast_env = make_env("WMPI", "SM", "capi", "measured")
    slow_env = make_env("MPICH", "SM", "capi", "measured")

    def both():     # best of 3 alternating runs: one 15-rep run is noisy
        runs = [(run_pingpong(fast_env, sizes=(1 << 18,), reps=15).times[0],
                 run_pingpong(slow_env, sizes=(1 << 18,), reps=15).times[0])
                for _ in range(3)]
        return min(f for f, _ in runs), min(s for _, s in runs)

    fast_t, slow_t = benchmark(both)
    assert slow_t > fast_t
