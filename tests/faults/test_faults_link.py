"""Tests for link flap mechanics and conservation under injection."""

import pytest

from repro.faults import FaultPlan
from repro.obs.invariants import InvariantChecker, check_link
from repro.obs.metrics import MetricsRegistry
from repro.sim.engine import Simulator
from repro.sim.link import Link
from repro.sim.node import Node
from repro.sim.packet import Packet
from repro.sim.queues import DropTailQueue, EnqueueResult
from repro.sim.trace import DropTrace

pytestmark = pytest.mark.faults


class _Sink(Node):
    def __init__(self, sim):
        super().__init__(sim, "sink")
        self.got = []

    def receive(self, pkt, link=None):
        self.got.append(pkt)


def _pkt(seq=0):
    return Packet(flow_id=1, seq=seq, size=1000, src=0, dst=1)


class TestLinkFlap:
    def test_down_link_drops_and_counts(self):
        sim = Simulator()
        sink = _Sink(sim)
        trace = DropTrace()
        link = Link(sim, sink, rate_bps=1e6, delay=0.001,
                    queue=DropTailQueue(4, name="l"), name="l", drop_trace=trace)
        link.take_down()
        assert link.send(_pkt()) is EnqueueResult.DROPPED
        assert link.packets_dropped_down == 1
        assert len(trace.drop_times()) == 1
        # conservation: offered == dropped_down here
        check_link(link)

    def test_up_down_up_is_idempotent(self):
        sim = Simulator()
        link = Link(sim, _Sink(sim), rate_bps=1e6, delay=0.001, name="l")
        link.take_down()
        link.take_down()
        assert link.flap_count == 1  # idempotent: one realized flap
        link.bring_up()
        link.bring_up()
        assert link.is_up

    def test_inflight_packets_drain_after_down(self):
        sim = Simulator()
        sink = _Sink(sim)
        link = Link(sim, sink, rate_bps=1e6, delay=0.001, name="l")
        link.send(_pkt(0))  # starts transmitting immediately
        link.take_down()
        sim.run(until=1.0)
        assert len(sink.got) == 1  # bits in flight still arrive
        check_link(link)

    def test_flap_counter_reaches_metrics(self):
        sim = Simulator()
        link = Link(sim, _Sink(sim), rate_bps=1e6, delay=0.001, name="l")
        reg = MetricsRegistry("t")
        link.attach_metrics(reg)
        link.take_down()
        assert reg.counter("link.l.flaps").value == 1


class TestArmLinks:
    def test_scheduled_flaps_fire(self):
        sim = Simulator()
        sink = _Sink(sim)
        link = Link(sim, sink, rate_bps=1e6, delay=0.001, name="bottleneck")
        plan = FaultPlan(1).add_link_flap(0.5, 1.0)
        assert plan.arm_links(sim, [link]) == 1
        sent = {"down": None, "up": None}

        def probe_at(t, key):
            def fire():
                sent[key] = link.send(_pkt())
            sim.schedule_at(t, fire)

        probe_at(0.75, "down")
        probe_at(1.25, "up")
        sim.run(until=2.0)
        assert sent["down"] is EnqueueResult.DROPPED
        assert sent["up"] is EnqueueResult.ENQUEUED
        assert plan.injected == {"link_down": 1, "link_up": 1}

    def test_named_flap_targets_one_link(self):
        sim = Simulator()
        a = Link(sim, _Sink(sim), rate_bps=1e6, delay=0.001, name="a")
        b = Link(sim, _Sink(sim), rate_bps=1e6, delay=0.001, name="b")
        plan = FaultPlan(1).add_link_flap(0.1, 0.2, link="a")
        assert plan.arm_links(sim, [a, b]) == 1
        sim.run(until=0.15)
        assert not a.is_up and b.is_up

    def test_invariants_hold_with_flaps_armed(self):
        """The make check-invariants contract: conservation modulo
        injected drops, told apart via the fault counters."""
        from repro.sim.topology import DumbbellConfig, build_dumbbell
        from repro.tcp.newreno import NewRenoSender
        from repro.tcp.sink import TcpSink

        sim = Simulator()
        db = build_dumbbell(sim, DumbbellConfig(bottleneck_rate_bps=10e6,
                                                buffer_pkts=16))
        flows = []
        for i in range(2):
            pair = db.add_pair(rtt=0.05, name=f"t{i}")
            snd = NewRenoSender(sim, pair.left, 100 + i, pair.right.node_id,
                                total_packets=None)
            sink = TcpSink(sim, pair.right, 100 + i, pair.left.node_id)
            flows.append((snd, sink))
            snd.start(0.01 * i)

        plan = FaultPlan.sample_sim(11, n_flaps=2, window=(0.3, 1.5))
        plan.arm_links(sim, (db.bottleneck_fwd, db.bottleneck_rev))

        reg = MetricsRegistry("t")
        plan.attach_metrics(reg)
        checker = InvariantChecker(reg)
        checker.add_link(db.bottleneck_fwd)
        checker.add_link(db.bottleneck_rev)
        for snd, sink in flows:
            checker.add_flow(snd, sink=sink, drop_traces=(db.drop_trace,),
                             traces_complete=True)
        checker.attach(sim, interval=0.25)
        sim.run(until=2.0)
        checker.final_check(sim)  # raises on any leak
        # both flaps, on both bottleneck directions
        flaps = db.bottleneck_fwd.flap_count + db.bottleneck_rev.flap_count
        assert flaps == plan.injected["link_down"] == 4
        assert reg.counter("faults.injected.link_down").value == 4
        assert db.drop_trace.drop_times().size > 0  # the flaps dropped packets
