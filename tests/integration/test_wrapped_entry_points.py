"""The per-hop entry points stay real calls resolved through the class.

The performance ledger's traced pass (``benchmarks/e2e/tracing.py``)
attributes time by replacing ``Link.send``, ``Queue.push`` / ``pop``,
``Node.receive`` and ``Host.send`` with timing wrappers at class level
*before* a scenario is built.  The hot
path is spelled flat (no ``_transmit`` / ``route_for`` / ``_fits`` helper
frames), and flat code is tempted to cache a bound method or inline a
neighbour's body; either would route around the wrappers and silently
zero a layer's counts.  This test installs counting wrappers the same
way and holds each count to the objects' own counters, and counts the
raw entries links push to show one event per hop.
"""

import functools

from repro.experiments.common import add_noise_fleet
from repro.sim.engine import Simulator
from repro.sim.link import Link
from repro.sim.node import Host, Router
from repro.sim.queues import Queue
from repro.sim.rng import RngStreams
from repro.sim.topology import DumbbellConfig, build_dumbbell
from repro.tcp.newreno import NewRenoSender
from repro.tcp.sink import TcpSink


def _subclasses(cls):
    for sub in cls.__subclasses__():
        yield sub
        yield from _subclasses(sub)


def _count_calls(monkeypatch, base, method):
    """Replace ``method`` on ``base`` and on every loaded subclass that
    overrides it; returns ``[calls, calls that returned None]``."""
    tally = [0, 0]
    for cls in (base, *_subclasses(base)):
        original = cls.__dict__.get(method)
        if original is None:
            continue

        @functools.wraps(original)
        def wrapper(*args, _original=original, **kwargs):
            tally[0] += 1
            result = _original(*args, **kwargs)
            if result is None:
                tally[1] += 1
            return result

        monkeypatch.setattr(cls, method, wrapper)
    return tally


def test_wrapper_counts_equal_the_objects_own_counters(monkeypatch):
    sends = _count_calls(monkeypatch, Link, "send")
    pushes = _count_calls(monkeypatch, Queue, "push")
    pops = _count_calls(monkeypatch, Queue, "pop")
    router_receives = _count_calls(monkeypatch, Router, "receive")
    host_sends = _count_calls(monkeypatch, Host, "send")

    # Built after the wrappers went in, as the traced pass does.  Links
    # take the engine's push when they are built, so counting it here
    # sees every entry; raw ones (args not None) come only from links.
    sim = Simulator()
    heap_push = sim.push
    raw = [0]

    def counting_push(entry):
        raw[0] += entry[3] is not None
        heap_push(entry)

    sim.push = counting_push
    cfg = DumbbellConfig(bottleneck_rate_bps=10e6, buffer_pkts=12)
    db = build_dumbbell(sim, cfg)
    senders, sinks = [], []
    for i in range(4):
        pair = db.add_pair(rtt=0.01 + 0.01 * i)
        senders.append(NewRenoSender(sim, pair.left, i + 1, pair.right.node_id))
        sinks.append(TcpSink(sim, pair.right, i + 1, pair.left.node_id))
        senders[-1].start(0.01 * i)
    add_noise_fleet(sim, db, RngStreams(3), 3, 0.10)
    sim.run(until=1.5)

    links = [db.bottleneck_fwd, db.bottleneck_rev]
    links += [link for pair in db.pairs for link in pair.links]
    queues = [link.queue for link in links]
    routers = [db.left_router, db.right_router]
    uplinks = [host.uplink for pair in db.pairs for host in (pair.left, pair.right)]

    assert db.forward_queue.dropped > 0  # the busy and the drop path both ran
    assert sends[0] == sum(link.packets_offered for link in links)
    assert pushes[0] == sum(q.arrived for q in queues)
    # A pop per dequeue entry, and one owed empty pop per busy period,
    # paid before the packet that starts the next one is queued: the pops
    # that returned a packet are the queues' dequeues, and each empty one
    # preceded a packet that was dequeued or is still waiting.
    dequeued = sum(q.dequeued for q in queues)
    assert pops[0] - pops[1] == dequeued
    assert 0 < pops[1] <= dequeued + sum(bool(q) for q in queues)
    assert router_receives[0] == sum(r.packets_forwarded for r in routers)
    assert all(r.no_route_drops == 0 for r in routers)
    # Every packet a host emits enters its uplink, and nothing else does.
    assert host_sends[0] == sum(link.packets_offered for link in uplinks)
    assert host_sends[0] >= (sum(s.stats.packets_sent for s in senders)
                             + sum(k.acks_sent for k in sinks))
    # One event per hop: a delivery per transmission started, plus one
    # dequeue per packet that waited in a (DropTail) queue, or is still
    # waiting at the head of one.
    started = sum(link.packets_forwarded + link.busy for link in links)
    waiting = sum(bool(q) for q in queues)
    assert raw[0] == started + sum(q.dequeued for q in queues) + waiting
    assert raw[0] < 1.3 * sum(link.packets_offered for link in links)
