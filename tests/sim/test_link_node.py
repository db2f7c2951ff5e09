"""Unit tests for links, hosts, and routers."""

import pytest

from repro.sim.engine import Simulator
from repro.sim.link import Link
from repro.sim.node import Host, Router
from repro.sim.packet import Packet
from repro.sim.queues import DropTailQueue
from repro.sim.trace import DropTrace


class Collector:
    """Test agent: records (time, packet) arrivals."""

    def __init__(self, sim):
        self.sim = sim
        self.got = []

    def receive(self, pkt):
        self.got.append((self.sim.now, pkt))


def mkpkt(flow=1, seq=0, size=1000, src=-1, dst=-1):
    return Packet(flow_id=flow, seq=seq, size=size, src=src, dst=dst)


def test_single_packet_delay_is_tx_plus_propagation():
    sim = Simulator()
    host = Host(sim)
    col = Collector(sim)
    host.attach(1, col)
    link = Link(sim, host, rate_bps=8e6, delay=0.010)  # 1000B -> 1ms tx
    link.send(mkpkt(size=1000))
    sim.run()
    assert len(col.got) == 1
    assert col.got[0][0] == pytest.approx(0.001 + 0.010)


def test_back_to_back_packets_serialize_at_link_rate():
    sim = Simulator()
    host = Host(sim)
    col = Collector(sim)
    host.attach(1, col)
    link = Link(sim, host, rate_bps=8e6, delay=0.0)
    for i in range(3):
        link.send(mkpkt(seq=i))
    sim.run()
    times = [t for t, _ in col.got]
    assert times == pytest.approx([0.001, 0.002, 0.003])


def test_full_queue_drops_and_traces():
    sim = Simulator()
    host = Host(sim)
    host.attach(1, Collector(sim))
    trace = DropTrace()
    link = Link(
        sim, host, rate_bps=8e6, delay=0.0,
        queue=DropTailQueue(2), drop_trace=trace,
    )
    # 1 transmitting + 2 queued + 2 dropped
    for i in range(5):
        link.send(mkpkt(seq=i))
    sim.run()
    assert len(trace) == 2
    assert list(trace.seqs) == [3, 4]
    assert link.packets_forwarded == 3


def test_link_utilization_and_byte_accounting():
    sim = Simulator()
    host = Host(sim)
    host.attach(1, Collector(sim))
    link = Link(sim, host, rate_bps=8e6, delay=0.0)
    for i in range(4):
        link.send(mkpkt(seq=i, size=1000))
    sim.run(until=8.0)
    assert link.bytes_forwarded == 4000
    assert link.utilization(8.0) == pytest.approx(0.004 / 8.0)


def test_invalid_link_parameters():
    sim = Simulator()
    host = Host(sim)
    with pytest.raises(ValueError):
        Link(sim, host, rate_bps=0, delay=0.0)
    with pytest.raises(ValueError):
        Link(sim, host, rate_bps=1e6, delay=-1.0)


def test_router_forwards_by_destination():
    sim = Simulator()
    router = Router(sim)
    h1, h2 = Host(sim), Host(sim)
    c1, c2 = Collector(sim), Collector(sim)
    h1.attach(1, c1)
    h2.attach(1, c2)
    to_h1 = Link(sim, h1, 1e9, 0.001)
    to_h2 = Link(sim, h2, 1e9, 0.001)
    router.add_route(h1.node_id, to_h1)
    router.add_route(h2.node_id, to_h2)

    router.receive(mkpkt(dst=h2.node_id))
    sim.run()
    assert len(c1.got) == 0
    assert len(c2.got) == 1
    assert router.packets_forwarded == 1


def test_router_counts_unroutable_packets():
    sim = Simulator()
    router = Router(sim)
    router.receive(mkpkt(dst=99999))
    assert router.no_route_drops == 1


def test_host_demux_by_flow_id():
    sim = Simulator()
    host = Host(sim)
    a, b = Collector(sim), Collector(sim)
    host.attach(1, a)
    host.attach(2, b)
    host.receive(mkpkt(flow=2))
    assert len(a.got) == 0 and len(b.got) == 1


def test_host_counts_unclaimed_packets():
    sim = Simulator()
    host = Host(sim)
    host.receive(mkpkt(flow=42))
    assert host.unclaimed_packets == 1


def test_duplicate_flow_attach_rejected():
    sim = Simulator()
    host = Host(sim)
    host.attach(1, Collector(sim))
    with pytest.raises(ValueError):
        host.attach(1, Collector(sim))


def test_host_send_without_uplink_raises():
    sim = Simulator()
    host = Host(sim)
    with pytest.raises(RuntimeError):
        host.send(mkpkt())


def test_host_detach():
    sim = Simulator()
    host = Host(sim)
    host.attach(1, Collector(sim))
    host.detach(1)
    host.receive(mkpkt(flow=1))
    assert host.unclaimed_packets == 1


def test_auto_link_names_are_stable_per_simulator():
    """Auto-generated names restart at link1 for every new Simulator, so
    back-to-back runs in one process key metrics/traces identically."""

    def build_names():
        sim = Simulator()
        host = Host(sim)
        return [Link(sim, host, rate_bps=1e6, delay=0.0).name for _ in range(3)]

    first = build_names()
    second = build_names()
    assert first == ["link1", "link2", "link3"]
    assert second == first


def test_explicit_link_name_does_not_consume_an_id():
    sim = Simulator()
    host = Host(sim)
    Link(sim, host, rate_bps=1e6, delay=0.0, name="bottleneck")
    auto = Link(sim, host, rate_bps=1e6, delay=0.0)
    assert auto.name == "link1"


def test_utilization_returns_raw_ratio_and_warns_past_one():
    from repro.obs.metrics import MetricsRegistry

    sim = Simulator()
    host = Host(sim)
    host.attach(1, Collector(sim))
    link = Link(sim, host, rate_bps=8e6, delay=0.0)
    for i in range(4):
        link.send(mkpkt(seq=i))  # 4 x 1ms of busy time
    sim.run()
    reg = MetricsRegistry()
    link.attach_metrics(reg)
    # Honest ratio below 1.0: no warning.
    assert link.utilization(0.008) == pytest.approx(0.5)
    assert link.utilization(0.004) == pytest.approx(1.0)
    assert link.utilization_overruns == 0
    # Over-unity ratio is returned unclamped and flagged.
    assert link.utilization(0.002) == pytest.approx(2.0)
    assert link.utilization_overruns == 1
    out = reg.as_dict()
    assert out["counters"]["link.link1.utilization_overruns"] == 1
    assert "exceeds 1.0" in out["warnings"][0]


# ----------------------------------------------------------------------
# One transmit step: the Dummynet noise and the reorder lag are draws
# inside Link.send / Link._dequeue, off unless asked for
# ----------------------------------------------------------------------
#: (time, burst length): 10 ms apart singles find the link idle; the
#: bursts queue, and the 7-packet one overflows (1 in service + 3).
_SENDS = ((0.000, 1), (0.010, 1), (0.020, 4), (0.0205, 2), (0.040, 7),
          (0.060, 2), (0.0601, 1), (0.080, 3), (0.090, 2))
_DOWN = (0.0795, 0.0805)  # the three sends at 0.080 die


def _sizes():
    seq = 0
    for at, burst in _SENDS:
        for _ in range(burst):
            yield at, seq, 200 + 100 * ((seq * 7) % 9)
            seq += 1


def _drive_link(make_link):
    """One packet sequence over a link built by ``make_link``: arrivals
    onto an idle transmitter, bursts that queue behind it and overflow a
    3-packet buffer, and a window with the link down.  Returns everything
    observable: deliveries, drops, arrivals and every counter."""
    from repro.sim.trace import ArrivalTrace

    sim = Simulator()
    host = Host(sim)
    col = Collector(sim)
    host.attach(1, col)
    drops, arrivals = DropTrace(), ArrivalTrace()
    link = make_link(sim, host, rate_bps=8e6, delay=0.0005,
                     queue=DropTailQueue(3), drop_trace=drops,
                     arrival_trace=arrivals)
    for at, seq, size in _sizes():
        sim.schedule_at(at, link.send, mkpkt(seq=seq, size=size))
    sim.schedule_at(_DOWN[0], link.take_down)
    sim.schedule_at(_DOWN[1], link.bring_up)
    sim.run()
    q = link.queue
    return {
        "deliveries": [(t, p.seq) for t, p in col.got],
        "drops": (drops.times.tolist(), drops.seqs.tolist()),
        "arrivals": len(arrivals),
        "link": (link.packets_offered, link.packets_dropped_down,
                 link.packets_forwarded, link.bytes_forwarded,
                 link.busy_time, link.busy, link.flap_count),
        "queue": (q.arrived, q.enqueued, q.dequeued, q.dropped,
                  q.peak_occupancy, q.bytes, len(q)),
        "events": sim.events_processed,
    }


def _fifo_model(rate_bps=8e6, delay=0.0005, capacity=3):
    """The plain store-and-forward step, computed without a simulator:
    each packet starts when it arrives or when its predecessor finishes,
    and an arrival finding ``capacity`` packets waiting is dropped."""
    finish, starts, deliveries, drops = 0.0, [], [], []
    for at, seq, size in _sizes():
        if _DOWN[0] <= at < _DOWN[1] or sum(s > at for s in starts) >= capacity:
            drops.append((at, seq))
            continue
        start = max(at, finish)
        assert start == at or start > at  # no arrival ties a departure
        starts.append(start)
        finish = start + size * 8.0 / rate_bps
        deliveries.append((finish + delay, seq))
    return deliveries, drops


def test_flat_transmit_paths_agree_across_link_classes():
    """``Link`` is the one transmit step.  With its two draws switched
    off it must be the plain FIFO on the idle path, the busy path, the
    drop path and the link-down path, whether or not it holds a
    generator, and it must not touch that generator."""
    import numpy as np

    rng = np.random.default_rng(0)
    before = rng.bit_generator.state
    plain = _drive_link(Link)
    drawless = _drive_link(lambda *a, **kw: Link(
        *a, rng=rng, max_noise=0.0, reorder_prob=0.0, **kw))
    # The scenario reaches every path.
    offered, dropped_down, forwarded = plain["link"][:3]
    assert dropped_down == 3
    assert plain["queue"][3] > 0 and plain["queue"][4] == 3  # overflowed, peaked
    assert 0 < plain["queue"][0] < offered - dropped_down  # some idle, some queued
    assert forwarded == len(plain["deliveries"])
    deliveries, drops = _fifo_model()
    assert plain["deliveries"] == deliveries
    assert list(zip(*plain["drops"])) == drops
    assert drawless == plain
    assert rng.bit_generator.state == before


def test_noisy_link_draws_once_per_transmission():
    """The noise draw sits in the transmit step — in ``send`` for an idle
    transmitter, in ``_dequeue`` for a queued packet — so a run
    consumes exactly one draw per transmission started, in transmission
    order."""
    import numpy as np

    sim = Simulator()
    host = Host(sim)
    col = Collector(sim)
    host.attach(1, col)
    link = Link(sim, host, 8e6, 0.0, rng=np.random.default_rng(7), max_noise=300e-6)
    link.send(mkpkt(seq=0))        # idle: drawn in send
    link.send(mkpkt(seq=1))        # queued: drawn in _dequeue
    link.send(mkpkt(seq=2))
    sim.schedule_at(0.010, link.send, mkpkt(seq=3))  # idle again
    sim.run()
    noise = np.random.default_rng(7).random(4) * 300e-6
    tx = 0.001 + noise
    expected = [tx[0], tx[0] + tx[1], tx[0] + tx[1] + tx[2], 0.010 + tx[3]]
    assert [t for t, _ in col.got] == pytest.approx(expected, abs=1e-12)
    assert link.busy_time == pytest.approx(tx.sum())
    assert link.reordered == 0


def test_reorder_lag_draws_once_per_delivery():
    """The reorder draw sits ahead of each delivery: one draw per packet
    forwarded, in forwarding order, and a drawn lag delays that packet
    alone."""
    import numpy as np

    sim = Simulator()
    host = Host(sim)
    col = Collector(sim)
    host.attach(1, col)
    link = Link(sim, host, 8e6, 0.002, rng=np.random.default_rng(3),
                reorder_prob=0.5, extra_delay=0.004)
    for i in range(8):
        link.send(mkpkt(seq=i))  # back to back: packet i leaves at (i+1) ms
    sim.run()
    lagged = np.random.default_rng(3).random(8) < 0.5
    assert 0 < lagged.sum() < 8
    expected = sorted(((i + 1) * 0.001 + 0.002 + 0.004 * lag, i)
                      for i, lag in enumerate(lagged))
    assert [p.seq for _, p in col.got] == [i for _, i in expected]
    assert [t for t, _ in col.got] == pytest.approx([t for t, _ in expected], abs=1e-12)
    assert link.reordered == int(lagged.sum())
