"""Tests for simulator-integrated Internet paths (LossyLink)."""

import numpy as np
import pytest

from repro.internet import PathLossModel, build_rtt_matrix, build_sim_path
from repro.internet.simpath import LossyLink
from repro.sim import Simulator
from repro.sim.node import Host
from repro.sim.packet import Packet
from repro.tcp import CbrSource, NewRenoSender, ProbeSink, TcpSink
from tests.internet import matrix_paths


def model(erate=1.0, edur=0.01, h=0.9, eps=1e-4, rtt=0.1):
    return PathLossModel(
        rtt=rtt, episode_rate=erate, episode_mean_duration=edur,
        episode_drop_prob=h, random_loss_prob=eps,
    )


class TestLossyLink:
    def _wired(self, m, seed=0):
        sim = Simulator()
        host = Host(sim)
        got = []

        class Sink:
            def receive(self, pkt):
                got.append(sim.now)

        host.attach(1, Sink())
        link = LossyLink(sim, host, 1e9, 0.001, m, np.random.default_rng(seed))
        return sim, link, got

    def test_no_loss_model_passes_everything(self):
        m = model(erate=0.0, eps=0.0)
        sim, link, got = self._wired(m)
        for i in range(100):
            sim.schedule(i * 0.01, link.send, Packet(1, i, 100))
        sim.run()
        assert len(got) == 100
        assert link.model_drops == 0

    def test_random_loss_rate_matches(self):
        m = model(erate=0.0, eps=0.05)
        sim, link, got = self._wired(m, seed=1)
        n = 20_000
        for i in range(n):
            sim.schedule(i * 1e-4, link.send, Packet(1, i, 100))
        sim.run()
        assert link.model_drops / n == pytest.approx(0.05, rel=0.15)

    def test_episode_drops_cluster(self):
        from repro.core import cluster_bursts

        m = model(erate=0.5, edur=0.02, h=0.95, eps=0.0)
        sim, link, _ = self._wired(m, seed=2)
        from repro.sim.trace import DropTrace

        link.drop_trace = DropTrace()
        for i in range(300_000):
            sim.schedule(i * 1e-3, link.send, Packet(1, i, 100))
        sim.run()
        bursts = cluster_bursts(link.drop_trace.times, gap=0.1)
        sizes = np.array([b.count for b in bursts])
        assert sizes.mean() > 3.0

    def test_invalid_horizon(self):
        sim = Simulator()
        host = Host(sim)
        with pytest.raises(ValueError):
            LossyLink(sim, host, 1e9, 0.001, model(), np.random.default_rng(0),
                      horizon=0.0)


class TestBuildSimPath:
    def test_probe_flow_over_sim_path(self):
        """End-to-end: CBR probe through a simulated WAN path; losses are
        reconstructable from receiver gaps."""
        sim = Simulator()
        mtx = build_rtt_matrix()
        path = matrix_paths(mtx)[0]
        m = model(erate=2.0, edur=0.01, h=0.9, eps=1e-3, rtt=path.base_rtt)
        src, dst, trace = build_sim_path(sim, path, m, np.random.default_rng(3),
                                         horizon=60.0)
        probe = CbrSource(sim, src, 1, dst.node_id, rate_bps=0.8e6,
                          packet_size=100, duration=30.0)
        sink = ProbeSink(sim, dst, 1)
        probe.start()
        sim.run(until=35.0)
        sent = probe.next_seq
        received = len(sink)
        assert sent > received  # some losses
        lost = probe.lost_times(sink.received_set())
        assert len(lost) == sent - received
        assert len(trace) == len(lost)

    def test_tcp_over_sim_path(self):
        """TCP survives a lossy WAN: retransmissions recover model drops."""
        sim = Simulator()
        mtx = build_rtt_matrix()
        path = matrix_paths(mtx)[10]
        # ~2.5% per-packet loss: a 400-packet transfer sees ~10 drops.
        m = model(erate=5.0, edur=0.005, h=0.8, eps=5e-3, rtt=path.base_rtt)
        src, dst, _ = build_sim_path(sim, path, m, np.random.default_rng(4),
                                     horizon=300.0)
        done = []
        snd = NewRenoSender(sim, src, 7, dst.node_id, total_packets=400,
                            on_complete=done.append)
        TcpSink(sim, dst, 7, src.node_id)
        snd.start()
        sim.run(until=200.0)
        assert done, "TCP did not complete over the lossy path"
        assert snd.stats.retransmissions > 0

    def test_rtt_matches_path(self):
        sim = Simulator()
        mtx = build_rtt_matrix()
        path = matrix_paths(mtx)[5]
        m = model(erate=0.0, eps=0.0, rtt=path.base_rtt)
        src, dst, _ = build_sim_path(sim, path, m, np.random.default_rng(5))
        got = []

        class Echo:
            def receive(self, pkt):
                got.append(sim.now)

        dst.attach(2, Echo())
        src.send(Packet(2, 0, 40, src=src.node_id, dst=dst.node_id))
        sim.run()
        assert got[0] == pytest.approx(path.base_rtt / 2, rel=0.01)


class TestWeatherHorizonExtension:
    """Regression: episodes used to be pre-sampled over a fixed 600 s
    horizon and traffic past it silently saw an episode-free network."""

    def test_episode_losses_continue_past_default_horizon(self):
        # heavy weather: ~2 episodes/s, 50 ms each, certain drops inside
        m = model(erate=2.0, edur=0.05, h=1.0, eps=0.0)
        sim, link, got = TestLossyLink()._wired(m, seed=3)
        n = 2000
        # probe exclusively *beyond* the old fixed horizon: [600, 800) s
        for k in range(n):
            t = 600.0 + k * 0.1
            sim.schedule_at(t, lambda: link.send(
                Packet(1, 0, 100, src=0, dst=0)))
        sim.run()
        # ~10% of offered load falls inside an episode; a silent void
        # past 600 s would make this exactly zero
        assert link.model_drops > 50
        assert len(got) > 0  # and plenty still got through
        assert link._covered >= 800.0

    def test_extension_covers_arbitrary_jumps(self):
        m = model(erate=0.5, edur=0.02)
        sim, link, _ = TestLossyLink()._wired(m, seed=1)
        sim.schedule_at(5000.0, lambda: link.send(Packet(1, 0, 100, src=0, dst=0)))
        sim.run()
        assert link._covered >= 5000.0
        # slabs are appended in offset order: starts stay sorted
        assert np.all(np.diff(link._starts) >= 0)

    def test_pre_horizon_behavior_unchanged(self):
        """Traffic inside the original horizon must see the exact same
        weather as before the lazy extension (no early resampling)."""
        m = model(erate=1.0, edur=0.01)
        rng_a = np.random.default_rng(7)
        rng_b = np.random.default_rng(7)
        sim = Simulator()
        host = Host(sim)
        a = LossyLink(sim, host, 1e9, 0.001, m, rng_a)
        b = LossyLink(sim, host, 1e9, 0.001, m, rng_b, horizon=600.0)
        assert a._starts.tolist() == b._starts.tolist()
        assert a._durations.tolist() == b._durations.tolist()
