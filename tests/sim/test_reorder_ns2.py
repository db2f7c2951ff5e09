"""Tests for the link's reorder lag."""

import numpy as np
import pytest

from repro.sim import Simulator
from repro.sim.link import Link
from repro.sim.node import Host
from repro.sim.packet import Packet
from repro.tcp import NewRenoSender, SackSender, TcpSink


class TestReorderingLink:
    """``Link(rng, reorder_prob, extra_delay)``: a random subset of
    deliveries arrives ``extra_delay`` late, so later packets overtake."""

    def _run(self, prob, n=500, seed=0):
        sim = Simulator()
        host = Host(sim)
        got = []

        class Sink:
            def receive(self, pkt):
                got.append(pkt.seq)

        host.attach(1, Sink())
        link = Link(
            sim, host, 8e6, 0.001, rng=np.random.default_rng(seed),
            reorder_prob=prob, extra_delay=0.01,
        )
        for i in range(n):
            sim.schedule(i * 0.001, link.send, Packet(1, i, 1000))
        sim.run()
        return got, link

    def test_zero_probability_keeps_fifo(self):
        got, link = self._run(0.0)
        assert got == sorted(got)
        assert link.reordered == 0

    def test_positive_probability_reorders(self):
        got, link = self._run(0.05)
        assert link.reordered > 0
        out_of_order = sum(1 for a, b in zip(got, got[1:]) if a > b)
        assert out_of_order > 0
        assert sorted(got) == list(range(500))  # nothing lost

    def test_validation(self):
        sim = Simulator()
        host = Host(sim)
        with pytest.raises(ValueError):
            Link(sim, host, 1e6, 0.001, rng=np.random.default_rng(0), reorder_prob=1.5)
        with pytest.raises(ValueError):
            Link(sim, host, 1e6, 0.001, rng=np.random.default_rng(0), extra_delay=0.0)
        with pytest.raises(ValueError):  # a draw needs a generator
            Link(sim, host, 1e6, 0.001, reorder_prob=0.5)

    @pytest.mark.parametrize("cls,sack", [(NewRenoSender, False), (SackSender, True)])
    def test_tcp_survives_reordering(self, cls, sack):
        """Reordering triggers spurious dupACK runs; the transfer must
        still complete correctly (possibly with spurious retransmits)."""
        sim = Simulator()
        snd_host, rcv_host = Host(sim), Host(sim)
        fwd = Link(
            sim, rcv_host, 50e6, 0.01, rng=np.random.default_rng(1),
            reorder_prob=0.02, extra_delay=0.004,
        )
        rev = Link(sim, snd_host, 50e6, 0.01)
        snd_host.uplink = fwd
        rcv_host.uplink = rev
        done = []
        snd = cls(sim, snd_host, 1, rcv_host.node_id, total_packets=2000,
                  on_complete=done.append)
        sink = TcpSink(sim, rcv_host, 1, snd_host.node_id, sack=sack)
        snd.start()
        sim.run(until=120.0)
        assert done, f"{cls.variant} did not survive reordering"
        assert sink.stats.bytes_received >= 2000 * 1000
        # No packet was ever dropped, so any retransmission was spurious —
        # reordering masquerading as loss, exactly the failure mode.
        assert fwd.queue.dropped == 0

