"""Tests for the dumbbell topology builder (paper Figure 1)."""

import pytest

from repro.obs.invariants import check_queue
from repro.sim.engine import Simulator
from repro.sim.packet import Packet
from repro.sim.queues import REDQueue
from repro.sim.topology import DumbbellConfig, build_dumbbell


class Echo:
    """Agent that records arrivals with timestamps."""

    def __init__(self, sim):
        self.sim = sim
        self.got = []

    def receive(self, pkt):
        self.got.append((self.sim.now, pkt))


def test_pair_rtt_is_exact_propagation_rtt():
    """A packet and its immediate echo traverse the path in exactly the
    configured RTT (plus serialization, negligible at these rates)."""
    sim = Simulator()
    db = build_dumbbell(sim, DumbbellConfig(bottleneck_rate_bps=1e9, access_rate_bps=1e9))
    pair = db.add_pair(rtt=0.100)

    rcv = Echo(sim)
    snd = Echo(sim)
    pair.right.attach(1, rcv)
    pair.left.attach(1, snd)

    # left -> right
    pair.left.send(Packet(1, 0, 40, src=pair.left.node_id, dst=pair.right.node_id))
    sim.run()
    t_fwd = rcv.got[0][0]
    # right -> left (echo)
    pair.right.send(Packet(1, 0, 40, src=pair.right.node_id, dst=pair.left.node_id))
    sim.run()
    t_rtt = snd.got[0][0]
    # 40B over 1Gbps ~ 0.32us per hop; 3 hops each way
    assert t_rtt == pytest.approx(0.100, abs=5e-6)
    assert t_fwd == pytest.approx(0.050, abs=3e-6)


def test_multiple_pairs_have_independent_rtts():
    sim = Simulator()
    db = build_dumbbell(sim, DumbbellConfig())
    p1 = db.add_pair(rtt=0.010)
    p2 = db.add_pair(rtt=0.200)
    assert db.mean_rtt() == pytest.approx(0.105)
    assert p1.index == 0 and p2.index == 1
    assert p1.left.node_id != p2.left.node_id


def test_bottleneck_drops_are_traced():
    sim = Simulator()
    cfg = DumbbellConfig(bottleneck_rate_bps=8e5, buffer_pkts=2)  # 10ms/packet
    db = build_dumbbell(sim, cfg)
    pair = db.add_pair(rtt=0.010)
    pair.right.attach(1, Echo(sim))
    # Flood 10 packets back-to-back from the sender: 1Gbps access link
    # delivers them nearly simultaneously to the 0.8Mbps bottleneck.
    for i in range(10):
        pair.left.send(Packet(1, i, 1000, src=pair.left.node_id, dst=pair.right.node_id))
    sim.run()
    assert len(db.drop_trace) > 0
    check_queue(db.forward_queue)
    check_queue(db.reverse_queue)


def test_bdp_packets_helper():
    cfg = DumbbellConfig(bottleneck_rate_bps=100e6, packet_size=1000)
    # 100 Mbps * 0.08 s / 8 / 1000 B = 1000 packets
    assert cfg.bdp_packets(0.080) == 1000
    assert cfg.bdp_packets(1e-9) == 1  # floors at 1


def test_swap_forward_queue_to_red():
    sim = Simulator()
    db = build_dumbbell(sim, DumbbellConfig())
    red = REDQueue(100)
    db.set_forward_queue(red)
    assert db.bottleneck_fwd.queue is red


def test_invalid_rtt_rejected():
    sim = Simulator()
    db = build_dumbbell(sim)
    with pytest.raises(ValueError):
        db.add_pair(rtt=0.0)


def test_mean_rtt_requires_pairs():
    sim = Simulator()
    db = build_dumbbell(sim)
    with pytest.raises(ValueError):
        db.mean_rtt()


def test_reverse_path_independent_of_forward_congestion():
    """Congestion on the forward bottleneck must not delay reverse traffic."""
    sim = Simulator()
    cfg = DumbbellConfig(bottleneck_rate_bps=8e5, buffer_pkts=5)
    db = build_dumbbell(sim, cfg)
    pair = db.add_pair(rtt=0.010)
    fwd_sink, rev_sink = Echo(sim), Echo(sim)
    pair.right.attach(1, fwd_sink)
    pair.left.attach(2, rev_sink)
    for i in range(5):
        pair.left.send(Packet(1, i, 1000, src=pair.left.node_id, dst=pair.right.node_id))
    pair.right.send(Packet(2, 0, 100, src=pair.right.node_id, dst=pair.left.node_id))
    sim.run()
    # Reverse packet: 3 hops of 2.5ms + ~1ms bottleneck tx for 100B
    assert rev_sink.got[0][0] < 0.015
