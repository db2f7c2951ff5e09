"""Tests for per-packet delay instrumentation."""

import numpy as np
import pytest

from repro.sim import DelayTrace, DumbbellConfig, Simulator, build_dumbbell
from repro.sim.packet import Packet
from repro.tcp import FastSender, NewRenoSender, TcpSink


class TestDelayTrace:
    def test_records_delay_components(self):
        tr = DelayTrace()
        pkt = Packet(1, 0, 1000, created=1.0)
        tr.record(pkt, 1.05)
        assert len(tr) == 1
        np.testing.assert_allclose(tr.delays, [0.05])
        np.testing.assert_allclose(tr.times, [1.05])
        assert tr.flow_ids[0] == 1

    def test_empty(self):
        tr = DelayTrace()
        assert tr.delays.shape == (0,)


class TestEndToEndDelay:
    def _run(self, sender_cls, buffer_pkts=60, **kw):
        sim = Simulator()
        db = build_dumbbell(
            sim, DumbbellConfig(bottleneck_rate_bps=10e6, buffer_pkts=buffer_pkts)
        )
        pair = db.add_pair(rtt=0.040)
        tr = DelayTrace()
        snd = sender_cls(sim, pair.left, 1, pair.right.node_id, **kw)
        TcpSink(sim, pair.right, 1, pair.left.node_id, delay_trace=tr)
        snd.start()
        sim.run(until=15.0)
        return tr, db

    def test_delay_floor_is_propagation(self):
        tr, _ = self._run(NewRenoSender)
        # One-way: 20ms propagation + ~1.8ms serialization floor at 10Mbps.
        assert tr.delays.min() == pytest.approx(0.0208, abs=0.002)

    def test_loss_based_fills_the_buffer(self):
        """NewReno's sawtooth repeatedly drives queueing delay to the
        buffer's worth: max queueing ~= buffer * pkt_time."""
        tr, db = self._run(NewRenoSender, buffer_pkts=60)
        buffer_delay = 60 * 1000 * 8 / 10e6  # 48 ms
        assert (tr.delays - tr.delays.min()).max() > 0.8 * buffer_delay

    def test_delay_based_keeps_queue_short(self):
        """FAST parks ~alpha packets: between-episode queueing stays near
        alpha * pkt_time, far below the buffer's worth."""
        tr, _ = self._run(FastSender, buffer_pkts=60, alpha=8.0)
        target = 8 * 1000 * 8 / 10e6  # 6.4 ms
        # Steady-state (post slow-start) queueing: use the median.
        assert np.percentile(tr.delays, 50) - tr.delays.min() < 2.5 * target
        assert (tr.delays - tr.delays.min()).max() < 48e-3  # never fills the buffer
