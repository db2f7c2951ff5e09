"""Tests for the delay-based (FAST TCP) sender — paper §5, ref. [23]."""

import numpy as np
import pytest

from repro.sim import DumbbellConfig, Simulator, ThroughputTrace, build_dumbbell
from repro.sim.node import Host
from repro.tcp import FastSender, NewRenoSender, TcpSink


def harness(rate=20e6, buffer_pkts=100):
    sim = Simulator()
    db = build_dumbbell(sim, DumbbellConfig(bottleneck_rate_bps=rate,
                                            buffer_pkts=buffer_pkts))
    return sim, db


class TestConstruction:
    def test_parameter_validation(self):
        sim = Simulator()
        host = Host(sim)
        with pytest.raises(ValueError):
            FastSender(sim, host, 1, dst=2, alpha=0.0)
        with pytest.raises(ValueError):
            FastSender(sim, host, 1, dst=2, gamma=0.0)
        with pytest.raises(ValueError):
            FastSender(sim, host, 1, dst=2, gamma=1.5)


class TestEquilibrium:
    def test_single_flow_zero_loss_full_link(self):
        sim, db = harness()
        pair = db.add_pair(rtt=0.040)
        snd = FastSender(sim, pair.left, 1, pair.right.node_id, alpha=10.0)
        sink = TcpSink(sim, pair.right, 1, pair.left.node_id)
        snd.start()
        sim.run(until=20.0)
        assert len(db.drop_trace) == 0
        assert snd.stats.retransmissions == 0
        mbps = sink.stats.bytes_received * 8 / 20.0 / 1e6
        assert mbps > 0.85 * 20.0

    def test_queueing_delay_targets_alpha(self):
        """Equilibrium: alpha packets parked per flow -> queueing delay of
        alpha * pkt / capacity."""
        sim, db = harness()
        pair = db.add_pair(rtt=0.040)
        snd = FastSender(sim, pair.left, 1, pair.right.node_id, alpha=10.0)
        TcpSink(sim, pair.right, 1, pair.left.node_id)
        snd.start()
        sim.run(until=20.0)
        expected = 10.0 * 1000 * 8 / 20e6  # 4 ms
        assert snd.srtt - snd.base_rtt == pytest.approx(expected, rel=0.5)

    def test_window_stable_after_convergence(self):
        """No sawtooth: the window's late-run variation is tiny."""
        sim, db = harness()
        pair = db.add_pair(rtt=0.040)
        snd = FastSender(sim, pair.left, 1, pair.right.node_id, alpha=10.0)
        TcpSink(sim, pair.right, 1, pair.left.node_id)
        snd.start()
        samples = []

        def sample():
            samples.append(snd.cwnd)
            if sim.now < 29.5:
                sim.schedule(0.1, sample)

        sim.schedule(10.0, sample)
        sim.run(until=30.0)
        arr = np.array(samples)
        assert arr.std() / arr.mean() < 0.05

    def test_rtt_fairness(self):
        """Equal equilibrium rates despite 4x RTT spread (the loss-based
        sqrt-RTT bias is absent)."""
        sim, db = harness()
        tp = ThroughputTrace(1.0)
        for i, rtt in enumerate((0.020, 0.080)):
            fid = 100 + i
            pair = db.add_pair(rtt=rtt)
            snd = FastSender(sim, pair.left, fid, pair.right.node_id, alpha=10.0)
            TcpSink(sim, pair.right, fid, pair.left.node_id, throughput=tp)
            tp.assign(fid, i)
            snd.start(0.05 * i)
        sim.run(until=30.0)
        a = tp.total_bytes(0)
        b = tp.total_bytes(1)
        assert min(a, b) / max(a, b) > 0.8

    def test_finite_transfer_completes(self):
        sim, db = harness()
        pair = db.add_pair(rtt=0.020)
        done = []
        snd = FastSender(sim, pair.left, 1, pair.right.node_id,
                         total_packets=500, on_complete=done.append)
        TcpSink(sim, pair.right, 1, pair.left.node_id)
        snd.start()
        sim.run(until=30.0)
        assert done


class TestLossHandling:
    def test_recovers_from_undersized_buffer(self):
        """With buffer < alpha the delay target is unreachable: losses must
        still be recovered (reliability is kept even when the signal is
        delay)."""
        sim, db = harness(buffer_pkts=5)
        pair = db.add_pair(rtt=0.020)
        done = []
        snd = FastSender(sim, pair.left, 1, pair.right.node_id, alpha=20.0,
                         total_packets=800, on_complete=done.append)
        TcpSink(sim, pair.right, 1, pair.left.node_id)
        snd.start()
        sim.run(until=60.0)
        assert done
        assert snd.stats.retransmissions > 0

    def test_no_multiplicative_halving_on_single_loss(self):
        sim = Simulator()
        host = Host(sim)

        class WireTap:
            def send(self, pkt):
                pass

        host.uplink = WireTap()
        snd = FastSender(sim, host, 1, dst=2, alpha=8.0)
        snd.cwnd = 40.0
        snd.next_seq = 50
        snd.highest_acked = 10
        snd.on_dup_ack(10, 3)
        assert snd.cwnd == pytest.approx(35.0)  # 0.875x, not 0.5x


class TestVsLossBased:
    def test_fast_avoids_the_loss_signal_entirely(self):
        """Head-to-head runs: NewReno necessarily drives the queue to
        overflow; FAST with adequate buffer never drops."""
        def run(cls, **kw):
            sim, db = harness(buffer_pkts=80)
            pair = db.add_pair(rtt=0.040)
            snd = cls(sim, pair.left, 1, pair.right.node_id, **kw)
            TcpSink(sim, pair.right, 1, pair.left.node_id)
            snd.start()
            sim.run(until=15.0)
            return len(db.drop_trace)

        assert run(NewRenoSender) > 0
        assert run(FastSender, alpha=10.0) == 0
