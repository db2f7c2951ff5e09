"""Tests for CBR probes, on-off noise sources, and sinks."""

import numpy as np
import pytest

from repro.sim import DumbbellConfig, Simulator, build_dumbbell
from repro.sim.node import Host
from repro.sim.packet import ACK, DATA, Packet
from repro.tcp import (
    CbrSource,
    OnOffSource,
    ProbeSink,
    TcpSink,
    UdpSink,
    noise_fleet_params,
)


class WireTap:
    def __init__(self, sim):
        self.sim = sim
        self.sent = []

    def send(self, pkt):
        self.sent.append((self.sim.now, pkt))


class TestCbr:
    def _wired(self, **kw):
        sim = Simulator()
        host = Host(sim)
        tap = WireTap(sim)
        host.uplink = tap
        src = CbrSource(sim, host, 1, dst=2, **kw)
        return sim, src, tap

    def test_exact_spacing(self):
        sim, src, tap = self._wired(rate_bps=8e4, packet_size=100)  # 10ms gaps
        src.start()
        sim.run(until=0.1)
        times = [t for t, _ in tap.sent]
        np.testing.assert_allclose(np.diff(times), 0.01)

    def test_duration_bounds_probe_count(self):
        sim, src, tap = self._wired(rate_bps=8e4, packet_size=100, duration=0.05)
        src.start()
        sim.run(until=1.0)
        assert len(tap.sent) == 5  # t = 0, 0.01, ..., 0.04

    def test_sequential_seqs_and_send_times(self):
        sim, src, tap = self._wired(rate_bps=8e4, packet_size=100, duration=0.03)
        src.start()
        sim.run(until=1.0)
        assert [p.seq for _, p in tap.sent] == [0, 1, 2]
        np.testing.assert_allclose(src.send_times_array(), [0.0, 0.01, 0.02])

    def test_lost_times_reconstruction(self):
        sim, src, _ = self._wired(rate_bps=8e4, packet_size=100, duration=0.05)
        src.start()
        sim.run(until=1.0)
        lost = src.lost_times(received_seqs={0, 2, 4})
        np.testing.assert_allclose(lost, [0.01, 0.03])

    def test_jitter_perturbs_spacing(self):
        rng = np.random.default_rng(0)
        sim, src, tap = self._wired(rate_bps=8e4, packet_size=100, jitter=0.5, rng=rng)
        src.start()
        sim.run(until=0.5)
        gaps = np.diff([t for t, _ in tap.sent])
        assert gaps.std() > 0
        assert abs(gaps.mean() - 0.01) < 0.002

    def test_stop_halts_emission(self):
        sim, src, tap = self._wired(rate_bps=8e4, packet_size=100)
        src.start()
        sim.run(until=0.05)
        src.stop()
        n = len(tap.sent)
        sim.run(until=0.2)
        assert len(tap.sent) == n

    def test_invalid_parameters(self):
        sim = Simulator()
        host = Host(sim)
        with pytest.raises(ValueError):
            CbrSource(sim, host, 1, 2, rate_bps=0)
        with pytest.raises(ValueError):
            CbrSource(sim, host, 1, 2, rate_bps=1e6, packet_size=0)
        with pytest.raises(ValueError):
            CbrSource(sim, host, 1, 2, rate_bps=1e6, jitter=1.5)


class TestOnOff:
    def test_mean_rate_matches_duty_cycle(self):
        rng = np.random.default_rng(1)
        sim = Simulator()
        host = Host(sim)
        tap = WireTap(sim)
        host.uplink = tap
        src = OnOffSource(
            sim, host, 1, dst=2, peak_rate_bps=4e6, mean_on=0.05, mean_off=0.15,
            rng=rng, packet_size=500,
        )
        src.start()
        sim.run(until=60.0)
        measured = sum(p.size for _, p in tap.sent) * 8 / 60.0
        assert measured == pytest.approx(1e6, rel=0.25)

    def test_output_is_bursty(self):
        """Packets cluster in ON periods: the inter-send CV far exceeds a
        CBR source's (0)."""
        rng = np.random.default_rng(2)
        sim = Simulator()
        host = Host(sim)
        tap = WireTap(sim)
        host.uplink = tap
        src = OnOffSource(sim, host, 1, 2, peak_rate_bps=4e6, mean_on=0.05,
                          mean_off=0.45, rng=rng)
        src.start()
        sim.run(until=30.0)
        gaps = np.diff([t for t, _ in tap.sent])
        assert gaps.std() / gaps.mean() > 1.5

    def test_stop(self):
        rng = np.random.default_rng(3)
        sim = Simulator()
        host = Host(sim)
        tap = WireTap(sim)
        host.uplink = tap
        src = OnOffSource(sim, host, 1, 2, peak_rate_bps=1e6, mean_on=0.1,
                          mean_off=0.1, rng=rng)
        src.start()
        sim.run(until=1.0)
        src.stop()
        n = len(tap.sent)
        sim.run(until=2.0)
        assert len(tap.sent) == n

    def test_invalid_parameters(self):
        sim = Simulator()
        host = Host(sim)
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError):
            OnOffSource(sim, host, 1, 2, peak_rate_bps=0, mean_on=1, mean_off=1, rng=rng)
        with pytest.raises(ValueError):
            OnOffSource(sim, host, 1, 2, peak_rate_bps=1e6, mean_on=0, mean_off=1, rng=rng)

    def test_noise_fleet_params(self):
        p = noise_fleet_params(100e6, n_flows=50, load_fraction=0.10, peak_to_mean=4.0)
        # Aggregate mean = 50 * peak * duty = 10 Mbps.
        duty = p["mean_on"] / (p["mean_on"] + p["mean_off"])
        assert 50 * p["peak_rate_bps"] * duty == pytest.approx(10e6)
        assert duty == pytest.approx(0.25)

    def test_noise_fleet_params_validation(self):
        with pytest.raises(ValueError):
            noise_fleet_params(1e6, n_flows=0)
        with pytest.raises(ValueError):
            noise_fleet_params(1e6, load_fraction=1.5)
        with pytest.raises(ValueError):
            noise_fleet_params(1e6, peak_to_mean=1.0)


class TestSinks:
    def test_tcp_sink_cumulative_acks(self):
        sim = Simulator()
        host = Host(sim)
        tap = WireTap(sim)
        host.uplink = tap
        sink = TcpSink(sim, host, 1, src=2)
        for seq in [0, 1, 3, 4, 2]:
            sink.receive(Packet(1, seq, 1000, kind=DATA))
        acks = [p.seq for _, p in tap.sent]
        # acks: 1, 2, dup 2, dup 2, then jump to 5 after the hole fills
        assert acks == [1, 2, 2, 2, 5]

    def test_tcp_sink_ignores_duplicates_in_byte_count(self):
        sim = Simulator()
        host = Host(sim)
        host.uplink = WireTap(sim)
        sink = TcpSink(sim, host, 1, src=2)
        for seq in [0, 0, 1, 1]:
            sink.receive(Packet(1, seq, 1000, kind=DATA))
        assert sink.stats.bytes_received == 2000

    def test_tcp_sink_echoes_ecn(self):
        sim = Simulator()
        host = Host(sim)
        tap = WireTap(sim)
        host.uplink = tap
        sink = TcpSink(sim, host, 1, src=2)
        pkt = Packet(1, 0, 1000, kind=DATA, ecn_capable=True)
        pkt.ecn_marked = True
        sink.receive(pkt)
        assert tap.sent[0][1].ecn_echo

    def test_tcp_sink_ignores_non_data(self):
        sim = Simulator()
        host = Host(sim)
        host.uplink = WireTap(sim)
        sink = TcpSink(sim, host, 1, src=2)
        sink.receive(Packet(1, 0, 40, kind=ACK))
        assert sink.stats.packets_received == 0

    def test_udp_sink_counts(self):
        sim = Simulator()
        host = Host(sim)
        sink = UdpSink(sim, host, 5)
        host.receive(Packet(5, 0, 500))
        assert sink.packets_received == 1
        assert sink.bytes_received == 500

    def test_probe_sink_records_seq_time(self):
        sim = Simulator()
        host = Host(sim)
        sink = ProbeSink(sim, host, 7)
        sim.schedule(1.5, host.receive, Packet(7, 3, 48))
        sim.run()
        assert sink.seqs == [3]
        assert sink.times == [1.5]
        assert sink.received_set() == {3}
        assert len(sink) == 1
