"""Cost-model calibration sanity (the paper's published constants)."""

import pytest

from repro.transport.netmodel import ENVIRONMENTS, PAPER_TABLE1, US


class TestCalibration:
    @pytest.mark.parametrize("mode", ["SM", "DM"])
    @pytest.mark.parametrize("platform", ["WMPI", "MPICH"])
    def test_c_latency_matches_table1(self, platform, mode):
        m = ENVIRONMENTS[f"{platform}_{mode}"]
        paper = PAPER_TABLE1[(mode, f"{platform}-C")] * US
        assert m.predict_time(1, wrapper=False) == \
            pytest.approx(paper, rel=0.01)

    @pytest.mark.parametrize("mode", ["SM", "DM"])
    @pytest.mark.parametrize("platform", ["WMPI", "MPICH"])
    def test_j_latency_matches_table1(self, platform, mode):
        m = ENVIRONMENTS[f"{platform}_{mode}"]
        paper = PAPER_TABLE1[(mode, f"{platform}-J")] * US
        assert m.predict_time(1, wrapper=True) == \
            pytest.approx(paper, rel=0.01)

    @pytest.mark.parametrize("mode", ["SM", "DM"])
    def test_wsock_latency(self, mode):
        m = ENVIRONMENTS[f"WSOCK_{mode}"]
        paper = PAPER_TABLE1[(mode, "Wsock")] * US
        assert m.predict_time(1, wrapper=False) == \
            pytest.approx(paper, rel=0.01)


class TestShapes:
    def test_wmpi_sm_peak_at_64k(self):
        """Paper §4.4: WMPI-C peaks ~65 MB/s around 64 KB."""
        m = ENVIRONMENTS["WMPI_SM"]
        bw64k = m.predict_bandwidth(64 * 1024, wrapper=False)
        assert bw64k == pytest.approx(65e6, rel=0.05)
        # declines past the peak (cache effects)
        assert m.predict_bandwidth(1 << 20, wrapper=False) < bw64k

    def test_wmpi_sm_j_54mbs(self):
        """Paper §4.4: mpiJava ~54 MB/s at the same point."""
        m = ENVIRONMENTS["WMPI_SM"]
        assert m.predict_bandwidth(64 * 1024, wrapper=True) == \
            pytest.approx(54e6, rel=0.05)

    def test_mpich_sm_still_rising_at_1m(self):
        """Paper §4.4: MPICH flattening but increasing, ~50 MB/s at 1 MB."""
        m = ENVIRONMENTS["MPICH_SM"]
        assert m.predict_bandwidth(1 << 20, wrapper=False) == \
            pytest.approx(50e6, rel=0.05)
        assert m.predict_bandwidth(1 << 20, wrapper=False) > \
            m.predict_bandwidth(1 << 18, wrapper=False)

    def test_dm_peaks_near_ethernet_limit(self):
        """Paper §4.5: ~1 MB/s, about 90% of 10 Mbps Ethernet."""
        for key in ("WMPI_DM", "MPICH_DM", "WSOCK_DM"):
            m = ENVIRONMENTS[key]
            bw = m.predict_bandwidth(1 << 20, wrapper=False)
            assert 0.95e6 < bw < 1.25e6 / 1  # below the 10 Mbps wire limit

    def test_dm_cj_converge_by_4k(self):
        """Paper §4.5: DM C and J curves converge around 4 KB."""
        m = ENVIRONMENTS["WMPI_DM"]
        c = m.predict_time(4096, wrapper=False)
        j = m.predict_time(4096, wrapper=True)
        assert (j - c) / c < 0.05

    def test_sm_j_constant_offset_small_messages(self):
        """Paper §4.4: roughly constant J offset for small messages."""
        m = ENVIRONMENTS["WMPI_SM"]
        deltas = [m.predict_time(n, True) - m.predict_time(n, False)
                  for n in (1, 64, 1024)]
        assert max(deltas) - min(deltas) < 3e-6

    def test_linux_marked_projected(self):
        assert ENVIRONMENTS["LINUX_SM"].projected
        assert ENVIRONMENTS["LINUX_DM"].projected
        assert not ENVIRONMENTS["WMPI_SM"].projected

    def test_wire_time_zero_bytes(self):
        m = ENVIRONMENTS["WMPI_SM"]
        assert m.wire_time(0) == 0.0
        assert m.message_time(0) == m.t_sw

    def test_bandwidth_monotone_interpolation(self):
        m = ENVIRONMENTS["MPICH_SM"]
        last = 0
        for k in range(0, 21):
            bw = m.raw_bandwidth(2 ** k)
            assert bw >= last * 0.999
            last = bw
