"""The one-event-per-hop ``Link`` against the two-event link it replaced.

``tests/sim/two_event_link.py`` keeps the old link verbatim.  Hypothesis
builds small random topologies — source hosts feeding a chain of up to
two routers, which fans out to the sinks — and runs each twice, once
with either link class, on either engine.  The inputs cover every queue
discipline (DropTail, RED with ECN, CoDel, FQ-CoDel), the two per-link
draws on and off, zero propagation delay, equal rates and sizes with
dyadic send times (so offers land on the exact instant a transmitter
frees, from entries scheduled before and after that instant's
completion sequence number), link flaps and ``run(until)`` slices with
offers made between them.  Both runs must log the same deliveries
``(time, uid)`` and drops, and agree on every link and queue counter at
every sampler tick.

The fused link orders one kind of float tie differently (see
:mod:`repro.sim.link`): an entry for exactly a delivery's timestamp,
scheduled while that packet was on the wire.  The generator keeps such
ties out by construction, so every difference it finds is a real one:
a forwarding hop's propagation delay is a multiple of ``UNIT``, longer
than any transmission, and only a hop into a sink may have none; sends
scheduled from inside the run lead their offer by less than ``UNIT``;
and the sampler's period is not dyadic.  The planted cases at the end
pin each of the three rules (ties, the owed pop, the counters) to a
scenario that breaks when the rule does.
"""

from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.obs.invariants import check_link
from repro.sim.engine import Simulator
from repro.sim.link import Link
from repro.sim.node import Host, Router
from repro.sim.queues import (
    CoDelParams, CoDelQueue, DropTailQueue, FqCoDelQueue, REDParams, REDQueue,
)
from repro.sim.reference import ReferenceSimulator
from repro.sim.trace import DropTrace
from tests.sim.two_event_link import TwoEventLink

#: Transmission times are multiples of 2**-10 s at these rates and sizes,
#: so sums of them are exact and ties are common.
RATES = (2.0**22, 2.0**23, 2.0**24)
SIZES = (256, 512, 1024, 1536)
GRID = 2.0**-10
MAX_NOISE = 2.0**-11
#: Longer than the longest transmission (1536 B at 2**22 b/s + noise).
UNIT = 2.0**-7
SAMPLE_EVERY = 0.0012345678901


@dataclass(frozen=True)
class LinkSpec:
    rate: float
    delay_units: int
    queue: str
    capacity: int
    noise: bool
    reorder: bool


@dataclass(frozen=True)
class Spec:
    routers: int
    sinks: int
    sources: tuple  # entry router index per source host (-1: straight to sink 0)
    links: tuple  # LinkSpec per link, in build order
    sends: tuple  # (source, time, size, sink, flow, ecn)
    kicks: tuple  # (source, time, lead, size, sink, flow): scheduled from inside
    flaps: tuple  # (link index, down at, up at)
    slices: tuple  # run(until) bounds; an offer from outside after each
    engine: str


def _queue(kind: str, capacity: int, name: str):
    if kind == "droptail":
        return DropTailQueue(capacity, name=name)
    if kind == "red":
        params = REDParams(min_th=1.0, max_th=3.0, weight=0.25, max_p=0.5, ecn=True)
        return REDQueue(capacity + 2, params=params, rng=np.random.default_rng(11),
                        service_rate_pps=1000.0, name=name)
    if kind == "codel":
        return CoDelQueue(capacity + 4, params=CoDelParams(target=0.001, interval=0.004),
                          name=name)
    return FqCoDelQueue(capacity + 4, params=CoDelParams(target=0.001, interval=0.004),
                        n_buckets=2, quantum=600, name=name)


def _run(spec: Spec, link_cls):
    """Build and run ``spec`` with ``link_cls``; returns everything
    observable."""
    sim = Simulator() if spec.engine == "heap" else ReferenceSimulator()
    routers = [Router(sim, name=f"r{i}") for i in range(spec.routers)]
    sinks = [Host(sim, name=f"s{i}") for i in range(spec.sinks)]
    sources = [Host(sim, name=f"h{i}") for i in range(len(spec.sources))]
    specs = iter(spec.links)
    links, drops = [], DropTrace()

    def make(dst, name):
        ls = next(specs)
        rng = np.random.default_rng(len(links))
        link = link_cls(sim, dst, ls.rate, ls.delay_units * UNIT,
                        queue=_queue(ls.queue, ls.capacity, name), name=name,
                        drop_trace=drops, rng=rng,
                        max_noise=MAX_NOISE if ls.noise else 0.0,
                        reorder_prob=0.3 if ls.reorder else 0.0, extra_delay=UNIT)
        links.append(link)
        return link

    for i in range(spec.routers - 1):
        hop = make(routers[i + 1], f"r{i}-r{i + 1}")
        for sink in sinks:
            routers[i].add_route(sink.node_id, hop)
    if routers:
        for k, sink in enumerate(sinks):
            routers[-1].add_route(sink.node_id, make(sink, f"r-s{k}"))
    for host, entry in zip(sources, spec.sources):
        host.uplink = make(routers[entry] if entry >= 0 else sinks[0], f"{host.name}-up")

    log = []

    class Sink:
        def receive(self, pkt):
            log.append((sim.now, pkt.uid))

    for sink in sinks:
        for flow in range(4):
            sink.attach(flow, Sink())

    def packet(size, sink, flow, ecn=False):
        return sim.alloc_packet(flow, 0, size, dst=sinks[sink].node_id, ecn_capable=ecn)

    for src, at, size, sink, flow, ecn in spec.sends:
        sim.schedule_at(at, sources[src].send, packet(size, sink, flow, ecn))
    for src, at, lead, size, sink, flow in spec.kicks:
        pkt = packet(size, sink, flow)
        sim.schedule_at(at, lambda s=sources[src], p=pkt, d=lead: sim.schedule(d, s.send, p))
    for index, down, up in spec.flaps:
        sim.schedule_at(down, links[index].take_down)
        sim.schedule_at(up, links[index].bring_up)
    outside = [packet(SIZES[k % 4], 0, k % 4) for k in range(len(spec.slices))]

    samples = []

    def sample():
        row = [sim.now]
        for link in links:
            q = link.queue
            check_link(link, sim.now)
            row.append((link.packets_offered, link.packets_forwarded, link.bytes_forwarded,
                        link.busy, link.busy_time, link.packets_dropped_down,
                        link.flap_count, q.arrived, q.enqueued, q.dequeued, q.dropped,
                        q.dropped_head, q.marked, len(q), q.bytes, q.peak_occupancy))
        samples.append(tuple(row))

    sim.schedule_every(SAMPLE_EVERY, sample)
    for until, pkt in zip(spec.slices, outside):
        sim.run(until=until)
        sample()
        sources[0].send(pkt)
        sample()
    sim.run()
    sample()
    return {
        "log": log,
        "drops": [drops.times.tolist(), drops.flow_ids.tolist(), drops.seqs.tolist(),
                  drops.sizes.tolist(), drops.marked.tolist()],
        "samples": samples,
        "reordered": [link.reordered for link in links],
        "now": sim.now,
    }


@st.composite
def specs(draw):
    n_routers = draw(st.integers(0, 2))
    n_sinks = draw(st.integers(1, 2)) if n_routers else 1
    n_sources = draw(st.integers(1, 3))
    uniform = draw(st.booleans())
    rate = draw(st.sampled_from(RATES))

    def link(last_hop):
        return LinkSpec(
            rate=rate if uniform else draw(st.sampled_from(RATES)),
            delay_units=draw(st.integers(0 if last_hop else 1, 3)),
            queue=draw(st.sampled_from(("droptail", "red", "codel", "fq-codel"))),
            capacity=draw(st.integers(1, 4)),
            noise=draw(st.booleans()) and not uniform,
            reorder=draw(st.booleans()),
        )

    links = [link(False) for _ in range(max(0, n_routers - 1))]
    if n_routers:
        links += [link(True) for _ in range(n_sinks)]
    entries = tuple(draw(st.integers(0, n_routers - 1)) if n_routers else -1
                    for _ in range(n_sources))
    links += [link(not n_routers) for _ in range(n_sources)]
    size = st.just(1024) if uniform else st.sampled_from(SIZES)
    times = st.integers(0, 60).map(lambda k: k * GRID)
    sends = draw(st.lists(st.tuples(
        st.integers(0, n_sources - 1), times, size, st.integers(0, n_sinks - 1),
        st.integers(0, 3), st.booleans()), min_size=1, max_size=40))
    kicks = draw(st.lists(st.tuples(
        st.integers(0, n_sources - 1), times, st.integers(0, 7).map(lambda k: k * GRID),
        size, st.integers(0, n_sinks - 1), st.integers(0, 3)), max_size=12))
    flaps = draw(st.lists(st.tuples(
        st.integers(0, len(links) - 1), times, times).map(
            lambda f: (f[0], min(f[1], f[2]), max(f[1], f[2]))), max_size=2))
    slices = draw(st.lists(times, max_size=3).map(sorted))
    return Spec(n_routers, n_sinks, entries, tuple(links), tuple(sends), tuple(kicks),
                tuple(flaps), tuple(slices), draw(st.sampled_from(("heap", "reference"))))


@settings(max_examples=250, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(spec=specs())
def test_fused_link_matches_two_event_link(spec):
    got, want = _run(spec, Link), _run(spec, TwoEventLink)
    assert got["log"] == want["log"]
    assert got["drops"] == want["drops"]
    assert got["samples"] == want["samples"]
    assert got == want


# ----------------------------------------------------------------------
# Planted cases: one rule each
# ----------------------------------------------------------------------
def _uniform(queue="droptail", delay_units=1, capacity=4):
    return LinkSpec(2.0**23, delay_units, queue, capacity, False, False)


PLANTED = {
    # Offers at exactly busy_until from entries scheduled before the
    # completion's number (busy: they queue) and after it (idle: they
    # transmit at once).
    "ties": Spec(
        routers=0, sinks=1, sources=(-1,), links=(_uniform(),),
        sends=tuple((0, k * GRID, 1024, 0, 0, False) for k in (0, 1, 1, 2, 5)),
        kicks=((0, 0.0, GRID, 1024, 0, 1), (0, 4 * GRID, GRID, 1024, 0, 1),
               (0, 7 * GRID, 0.0, 1024, 0, 1)),
        flaps=(), slices=(2 * GRID, 6 * GRID), engine="heap"),
    # FQ-CoDel retires a drained bucket in the empty pop that ends a busy
    # period.  Flow 0's bucket drains with credit left; retired, it
    # rejoins the new-flow list behind flow 1's when the next busy period
    # queues both, and flow 1 goes first.  Not retired, flow 0 would
    # keep its place and its credit.
    "owed_pop": Spec(
        routers=0, sinks=1, sources=(-1,), links=(_uniform("fq-codel"),),
        sends=((0, 0.0, 512, 0, 0, False), (0, 0.0, 512, 0, 0, False),
               (0, 10 * GRID, 512, 0, 0, False), (0, 10.125 * GRID, 512, 0, 1, False),
               (0, 10.25 * GRID, 512, 0, 0, False)),
        kicks=(), flaps=(), slices=(), engine="heap"),
    # Forwarded counts move when the last bit leaves, which the
    # non-dyadic sampler sees mid-transmission.
    "counters": Spec(
        routers=0, sinks=1, sources=(-1,), links=(_uniform(),),
        sends=tuple((0, k * GRID / 2, 1024, 0, 0, False) for k in range(6)),
        kicks=(), flaps=(), slices=(3 * GRID,), engine="reference"),
}


@pytest.mark.parametrize("case", sorted(PLANTED))
def test_planted_case_matches_two_event_link(case):
    assert _run(PLANTED[case], Link) == _run(PLANTED[case], TwoEventLink)
