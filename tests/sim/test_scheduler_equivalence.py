"""Pooled/tuple-heap scheduler vs the reference pure-heap scheduler.

The optimized :class:`~repro.sim.engine.Simulator` (tuple-keyed heap,
pooled Event/Packet objects, raw entries pushed through ``push`` /
``reserve_seq``) must be observationally identical to
:class:`~repro.sim.reference.ReferenceSimulator` (the pre-optimization
engine, kept verbatim): same firing order, same timestamps, same
tie-break behavior, for any workload.  These tests drive both engines
with the same seeded random workloads and assert the event logs match
exactly.  ``schedule_fast`` is the raw-entry route a link takes.
"""

import numpy as np
import pytest

from repro.sim.engine import Simulator
from repro.sim.reference import ReferenceSimulator
from tests.sim.two_event_link import schedule_fast


def _random_workload(sim, rng_seed: int, n_ops: int = 400, spread: float = 1.0):
    """Drive ``sim`` with a seeded mix of schedule/schedule_at/raw
    entry/cancel operations (duplicate times included, so the
    (time, seq) tie-break is exercised) and return the firing log.
    ``spread`` scales every delay (about 1 s at 1.0)."""
    rng = np.random.default_rng(rng_seed)
    log = []
    handles = []

    def fire(tag):
        log.append((sim.now, tag))
        # Some callbacks schedule more work, from inside the dispatch loop.
        if tag % 7 == 0:
            schedule_fast(sim, float(rng.integers(0, 4)) * 0.125 * spread, fire, tag + 10_000)
        if tag % 11 == 0:
            handles.append(sim.schedule(float(rng.integers(0, 4)) * 0.25 * spread, fire,
                                        tag + 20_000))

    for i in range(n_ops):
        # Quantized delays force plenty of exact time collisions.
        delay = float(rng.integers(0, 16)) * 0.0625 * spread
        kind = int(rng.integers(0, 4))
        if kind == 0:
            schedule_fast(sim, delay, fire, i)
        elif kind == 1:
            handles.append(sim.schedule(delay, fire, i))
        elif kind == 2:
            handles.append(sim.schedule_at(sim.now + delay, fire, i))
        else:
            schedule_fast(sim, delay, fire, i)
            if handles and rng.random() < 0.5:
                victim = int(rng.integers(0, len(handles)))
                handles[victim].cancel()
    sim.run()
    return log


@pytest.mark.parametrize("seed", [0, 1, 2, 3, 17])
def test_random_workload_matches_reference(seed):
    opt_log = _random_workload(Simulator(), seed)
    ref_log = _random_workload(ReferenceSimulator(), seed)
    assert len(opt_log) > 400  # callbacks rescheduled more work
    assert opt_log == ref_log


@pytest.mark.parametrize("seed", [5, 23])
def test_interleaved_runs_match_reference(seed):
    """Equivalence must hold across repeated run()/schedule cycles too
    (pooled handles from earlier cycles are recycled into later ones)."""

    def episodes(sim):
        log = []
        rng = np.random.default_rng(seed)
        for _ in range(5):
            hs = [
                sim.schedule(float(rng.integers(0, 8)) * 0.125,
                             lambda k=i: log.append((sim.now, k)))
                for i in range(50)
            ]
            for h in hs[::3]:
                h.cancel()
            sim.run(until=sim.now + 0.5)
        sim.run()
        return log

    assert episodes(Simulator()) == episodes(ReferenceSimulator())


def test_sequential_identical_runs_are_identical():
    """Two identical runs in one interpreter produce identical traces.

    Regression for the module-global packet uid counter: uid state used
    to leak across runs in-process, so the second run of the very same
    scenario differed from the first.  Uids are now per-Simulator.
    """
    from repro.sim.topology import DumbbellConfig, build_dumbbell
    from repro.tcp.newreno import NewRenoSender
    from repro.tcp.sink import TcpSink

    def run_once():
        sim = Simulator()
        db = build_dumbbell(
            sim, DumbbellConfig(bottleneck_rate_bps=10e6, buffer_pkts=16)
        )
        for i in range(3):
            pair = db.add_pair(rtt=0.02 + 0.01 * i)
            snd = NewRenoSender(sim, pair.left, i + 1, pair.right.node_id,
                                total_packets=400)
            TcpSink(sim, pair.right, i + 1, pair.left.node_id)
            snd.start()
        sim.run(until=10.0)
        tr = db.drop_trace
        uids = [sim.alloc_packet(9, k, 100).uid for k in range(3)]
        return (
            sim.events_processed,
            tr.times.tolist(),
            tr.flow_ids.tolist(),
            tr.seqs.tolist(),
            uids,
        )

    first = run_once()
    second = run_once()
    assert len(first[1]) > 0  # the scenario actually dropped packets
    assert first == second


def test_event_pool_recycles_fired_handles():
    sim = Simulator()
    fired = []
    for i in range(20):
        sim.schedule(i * 0.01, fired.append, i)
    sim.run()
    assert fired == list(range(20))
    assert len(sim._event_pool) > 0
    # A pooled (already fired) handle must come back reset and usable.
    h = sim.schedule(0.01, fired.append, 99)
    assert not h.cancelled
    sim.run()
    assert fired[-1] == 99


def test_stale_cancel_of_recycled_handle_is_harmless():
    """cancel() on a handle whose event already fired (and whose object
    may since have been recycled) must not disturb later events."""
    sim = Simulator()
    log = []
    h = sim.schedule(0.1, log.append, "a")
    sim.run()
    h.cancel()
    h.cancel()  # idempotent
    sim.schedule(0.1, log.append, "b")
    sim.run()
    assert log == ["a", "b"]


def test_packet_pool_reuse_resets_fields():
    sim = Simulator()
    p1 = sim.alloc_packet(1, 0, 1000)
    p1.ecn_marked = True
    p1.meta = {"x": 1}
    uid1 = p1.uid
    sim.free_packet(p1)
    p2 = sim.alloc_packet(2, 5, 500)
    assert p2 is p1  # recycled from the free list
    assert p2.uid == uid1 + 1  # fresh uid: pooling is invisible in traces
    assert p2.flow_id == 2 and p2.seq == 5 and p2.size == 500
    assert p2.ecn_marked is False and p2.meta is None


@pytest.mark.parametrize("engine", [Simulator, ReferenceSimulator])
def test_rejected_packet_size_draws_no_uid_and_keeps_the_pool(engine):
    """A caught ``ValueError`` from ``alloc_packet`` leaves no trace: the
    uids that follow and the free list are those of a run without the
    call."""

    def after(reject):
        sim = engine()
        for pkt in [sim.alloc_packet(1, k, 100) for k in range(3)]:
            sim.free_packet(pkt)
        if reject:
            with pytest.raises(ValueError):
                sim.alloc_packet(1, 9, 0)
        pooled = len(getattr(sim, "_packet_pool", ()))
        return pooled, [sim.alloc_packet(1, k, 100).uid for k in range(5)]

    assert after(reject=True) == after(reject=False)


def test_packet_uids_are_per_simulator():
    a, b = Simulator(), Simulator()
    ua = [a.alloc_packet(1, i, 100).uid for i in range(4)]
    ub = [b.alloc_packet(1, i, 100).uid for i in range(4)]
    assert ua == ub  # independent sequences, same start


# ----------------------------------------------------------------------
# Long horizons, more seeds, and same-timestamp runs in schedule order
# ----------------------------------------------------------------------
@pytest.mark.parametrize("seed", [0, 1, 2, 3, 17])
def test_wheel_engine_matches_heap_engine(seed):
    """Delays spread over ~300 s (the span the deleted timer wheel split
    into levels and an overflow heap) put near and far timers on one
    heap; it must fire exactly as the reference engine does: same
    order, same timestamps, same tie-breaks."""
    got = _random_workload(Simulator(), seed, spread=300.0)
    want = _random_workload(ReferenceSimulator(), seed, spread=300.0)
    assert len(got) > 400
    assert max(t for t, _ in got) > 256.0
    assert got == want


@pytest.mark.parametrize("seed", [0, 7])
def test_wheel_engine_matches_reference(seed):
    assert (_random_workload(Simulator(), seed)
            == _random_workload(ReferenceSimulator(), seed))


def test_same_timestamp_batches_dequeue_in_schedule_order():
    """A same-timestamp run must keep the (time, seq) contract: FIFO
    within a timestamp, across every scheduling API and across events
    that append to the timestamp currently being dispatched."""
    sim = Simulator()
    ref = ReferenceSimulator()
    def drive(s):
        log = []
        def fire(tag):
            log.append((s.now, tag))
            # extend the *current* timestamp's batch mid-drain
            if tag == 3:
                schedule_fast(s, 0.0, fire, 100)
                s.schedule(0.0, fire, 101)
        for t in (0.5, 0.5, 0.25, 0.5, 0.25):
            for i in range(6):
                if i % 2:
                    schedule_fast(s, t, fire, int(t * 100) + i)
                else:
                    s.schedule(t, fire, int(t * 100) + i)
        # a large homogeneous same-timestamp run
        for i in range(200):
            schedule_fast(s, 1.0, fire, 1000 + i)
        s.run()
        return log
    assert drive(sim) == drive(ref)


# ----------------------------------------------------------------------
# The Fig. 2 shape on both engines
# ----------------------------------------------------------------------
def _fig2_scaled(sim, seed: int = 1):
    """The Fig. 2 scenario at test size — 4 NewReno flows plus 4 on-off
    noise flows over DropTail, 2 simulated seconds — on the given engine."""
    from repro.experiments.common import add_noise_fleet, random_rtts
    from repro.sim.rng import RngStreams
    from repro.sim.topology import DumbbellConfig, build_dumbbell
    from repro.tcp.newreno import NewRenoSender
    from repro.tcp.sink import TcpSink

    streams = RngStreams(seed)
    rtts = random_rtts(4, streams)
    topo = DumbbellConfig(bottleneck_rate_bps=20e6)
    topo.buffer_pkts = max(4, int(topo.bdp_packets(float(rtts.mean())) * 0.5))
    db = build_dumbbell(sim, topo)
    start_rng = streams.stream("starts")
    for i, rtt in enumerate(rtts):
        pair = db.add_pair(rtt=float(rtt), name=f"tcp{i}")
        snd = NewRenoSender(sim, pair.left, 100 + i, pair.right.node_id,
                            total_packets=None)
        TcpSink(sim, pair.right, 100 + i, pair.left.node_id)
        snd.start(float(start_rng.uniform(0.0, 0.5)))
    add_noise_fleet(sim, db, streams, 4, 0.10)
    sim.run(until=2.0)
    return sim.events_processed, db.drop_trace


def test_fig2_shape_matches_reference():
    """No other tier-1 test runs TCP flows *and* the on-off noise fleet
    on both engines: event count and every drop-trace column must equal
    the reference engine's."""
    events, trace = _fig2_scaled(Simulator())
    ref_events, ref_trace = _fig2_scaled(ReferenceSimulator())
    assert len(trace.times) > 0  # the scenario actually dropped packets
    assert events == ref_events
    for column in ("times", "flow_ids", "seqs", "sizes", "marked"):
        assert np.array_equal(getattr(trace, column),
                              getattr(ref_trace, column)), column


# ----------------------------------------------------------------------
# Raw entries a few microseconds apart, from inside dispatch and between
# run slices
# ----------------------------------------------------------------------
#: Zero and packet-scale delays (a 1000-byte packet at 100 Mbps takes
#: 80 us): raw entries pushed with these from inside dispatch land at or
#: just after the timestamp being dispatched.
SHORT_DELAYS = (0.0, 1e-6, 30e-6, 100e-6, 121e-6)


def _same_tick_workload(sim, base):
    """Callbacks that push raw entries at zero and microsecond delays
    from inside the dispatch loop, around clock ``base``, interleaved
    with timers that were scheduled ``base`` seconds ahead and with
    calls made from outside, between two ``run(until=...)`` slices.  Returns the firing
    log with ``pending`` read at every callback and around every slice."""
    log = []
    optimized = isinstance(sim, Simulator)

    def note(tag):
        log.append((sim.now, tag, sim.pending))
        if optimized:
            assert sim.pending == len(sim._heap) - sim._cancelled

    def burst(tag, depth):
        note(tag)
        if depth:
            for k, delay in enumerate(SHORT_DELAYS):
                schedule_fast(sim, delay, burst, tag * 10 + k, depth - 1)
            # Slotted entries for the same instant; one of the pair is
            # cancelled.
            keep = sim.schedule(50e-6, note, -tag)
            sim.schedule(50e-6, note, -tag - 1).cancel()
            assert not keep.cancelled

    # Far timers first, so their seq numbers are older than everything
    # the bursts schedule at the same timestamps.
    for k, offset in enumerate((0.0, 30e-6, 30e-6, 100e-6, 151e-6, 400e-6)):
        sim.schedule_at(base + offset, note, 9000 + k)
    sim.schedule_at(base, burst, 1, 3)
    sim.schedule_at(base + 200e-6, burst, 2, 2)
    sim.schedule_at(base + 0.5, burst, 3, 2)

    # Slices that end between entries microseconds apart; the calls
    # between them come from outside the dispatch loop.
    for k, until in enumerate((base + 15e-6, base + 110e-6, base + 260e-6)):
        sim.run(until=until)
        log.append(("slice", sim.now, sim.pending))
        schedule_fast(sim, 0.0, note, 7000 + 10 * k)
        schedule_fast(sim, 20e-6, burst, 7001 + 10 * k, 1)
        schedule_fast(sim, 121e-6, note, 7002 + 10 * k)
        log.append(("armed", sim.now, sim.pending))
    sim.run()
    log.append(("idle", sim.now, sim.pending))
    return log


@pytest.mark.parametrize("base", [0.25, 1000.0], ids=["near", "heap-overflow"])
def test_same_tick_schedule_fast_matches_reference(base):
    sim = Simulator()
    got = _same_tick_workload(sim, base)
    want = _same_tick_workload(ReferenceSimulator(), base)
    assert len(got) > 300
    assert got == want
    assert sim.pending == 0 and sim.queued == 0
