"""Pooled/fast-path scheduler vs the reference pure-heap scheduler.

The optimized :class:`~repro.sim.engine.Simulator` (tuple-keyed heap,
pooled Event/Packet objects, slot-free ``schedule_fast``) must be
observationally identical to :class:`~repro.sim.reference.ReferenceSimulator`
(the pre-optimization engine, kept verbatim): same firing order, same
timestamps, same tie-break behavior, for any workload.  These tests drive
both engines with the same seeded random workloads and assert the event
logs match exactly.
"""

import numpy as np
import pytest

from repro.sim.engine import Simulator
from repro.sim.reference import ReferenceSimulator


def _random_workload(sim, rng_seed: int, n_ops: int = 400):
    """Drive ``sim`` with a seeded mix of schedule/schedule_at/
    schedule_fast/cancel operations (duplicate times included, so the
    (time, seq) tie-break is exercised) and return the firing log."""
    rng = np.random.default_rng(rng_seed)
    log = []
    handles = []

    def fire(tag):
        log.append((sim.now, tag))
        # Some callbacks schedule more work, from inside the dispatch loop.
        if tag % 7 == 0:
            sim.schedule_fast(float(rng.integers(0, 4)) * 0.125, fire, tag + 10_000)
        if tag % 11 == 0:
            handles.append(sim.schedule(float(rng.integers(0, 4)) * 0.25, fire, tag + 20_000))

    for i in range(n_ops):
        # Quantized delays force plenty of exact time collisions.
        delay = float(rng.integers(0, 16)) * 0.0625
        kind = int(rng.integers(0, 4))
        if kind == 0:
            sim.schedule_fast(delay, fire, i)
        elif kind == 1:
            handles.append(sim.schedule(delay, fire, i))
        elif kind == 2:
            handles.append(sim.schedule_at(sim.now + delay, fire, i))
        else:
            sim.schedule_fast(delay, fire, i)
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


def test_packet_uids_are_per_simulator():
    a, b = Simulator(), Simulator()
    ua = [a.alloc_packet(1, i, 100).uid for i in range(4)]
    ub = [b.alloc_packet(1, i, 100).uid for i in range(4)]
    assert ua == ub  # independent sequences, same start


def test_schedule_fast_validates_delay():
    from repro.sim.engine import SimulationError

    sim = Simulator()
    with pytest.raises(SimulationError):
        sim.schedule_fast(-0.001, lambda: None)
    with pytest.raises(SimulationError):
        sim.schedule_fast(float("inf"), lambda: None)


# ----------------------------------------------------------------------
# Timer wheel vs heap, and same-timestamp batch dequeue
# ----------------------------------------------------------------------
@pytest.mark.parametrize("seed", [0, 1, 2, 3, 17])
def test_wheel_engine_matches_heap_engine(seed):
    """The wheel fast path (near timers in slots, far timers in the
    overflow heap) must fire identically to the pure-heap engine for any
    workload — same order, same timestamps, same tie-breaks."""
    wheel_log = _random_workload(Simulator(use_wheel=True), seed)
    heap_log = _random_workload(Simulator(use_wheel=False), seed)
    assert len(wheel_log) > 400
    assert wheel_log == heap_log


@pytest.mark.parametrize("seed", [0, 7])
def test_wheel_engine_matches_reference(seed):
    assert (_random_workload(Simulator(use_wheel=True), seed)
            == _random_workload(ReferenceSimulator(), seed))


@pytest.mark.parametrize("use_wheel", [True, False], ids=["wheel", "heap"])
def test_same_timestamp_batches_dequeue_in_schedule_order(use_wheel):
    """Batch dequeue of a same-timestamp run must preserve the (time,
    seq) contract: FIFO within a timestamp, across every scheduling API
    and across events that append to a batch currently being drained."""
    sim = Simulator(use_wheel=use_wheel)
    ref = ReferenceSimulator()
    def drive(s):
        log = []
        def fire(tag):
            log.append((s.now, tag))
            # extend the *current* timestamp's batch mid-drain
            if tag == 3:
                s.schedule_fast(0.0, fire, 100)
                s.schedule(0.0, fire, 101)
        for t in (0.5, 0.5, 0.25, 0.5, 0.25):
            for i in range(6):
                if i % 2:
                    s.schedule_fast(t, fire, int(t * 100) + i)
                else:
                    s.schedule(t, fire, int(t * 100) + i)
        # a large homogeneous batch (exercises the due-run sort path)
        for i in range(200):
            s.schedule_fast(1.0, fire, 1000 + i)
        s.run()
        return log
    assert drive(sim) == drive(ref)


def test_far_timers_overflow_to_heap_and_cascade_back():
    """Timers beyond the wheel horizon start in the overflow heap but
    must still fire in exact order with near timers, including after the
    clock jumps far forward through heap-only regions."""
    sim = Simulator(use_wheel=True)
    log = []
    for t in (1e5, 2.0, 1e5 + 0.001, 0.001, 3e5):
        sim.schedule_at(t, log.append, t)
    # near timers scheduled *from* a far-future callback re-engage the wheel
    sim.schedule_at(1e5, lambda: sim.schedule_fast(0.01, log.append, "near-after-jump"))
    sim.run()
    assert log == [0.001, 2.0, 1e5, 1e5 + 0.001, "near-after-jump", 3e5]


def test_run_until_with_wheel_resident_timers():
    sim = Simulator(use_wheel=True)
    fired = []
    for k in range(100):
        sim.schedule_fast(0.001 * (k + 1), fired.append, k)
    sim.run(until=0.05)
    assert fired == list(range(50))
    assert sim.now == 0.05
    sim.run()
    assert fired == list(range(100))


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


@pytest.mark.parametrize("use_wheel", [True, False], ids=["wheel", "heap"])
def test_fig2_shape_matches_reference(use_wheel):
    """No other tier-1 test runs TCP flows *and* the on-off noise fleet
    on both engines: event count and every drop-trace column must equal
    the reference engine's."""
    events, trace = _fig2_scaled(Simulator(use_wheel=use_wheel))
    ref_events, ref_trace = _fig2_scaled(ReferenceSimulator())
    assert len(trace.times) > 0  # the scenario actually dropped packets
    assert events == ref_events
    for column in ("times", "flow_ids", "seqs", "sizes", "marked"):
        assert np.array_equal(getattr(trace, column),
                              getattr(ref_trace, column)), column


# ----------------------------------------------------------------------
# Same-tick schedule_fast: entries that join the batch being drained
# ----------------------------------------------------------------------
#: Delays shorter than one wheel tick (1/8192 s ~ 122 us): a
#: ``schedule_fast`` with one of these from inside a draining bucket lands
#: at or before the wheel position and is inserted into the due batch.
SUB_TICK = (0.0, 1e-6, 30e-6, 100e-6, 121e-6)


def _census(sim):
    """Entries actually held by every queue structure, counted the slow
    way (the engine's ``queued`` is bookkeeping; this is the truth)."""
    held = len(sim._heap) + len(sim._due) - sim._due_i
    if sim._w0 is not None:
        held += sum(len(b) for b in sim._w0) + sum(len(b) for b in sim._w1)
    return held


def _same_tick_workload(sim, base):
    """Callbacks that ``schedule_fast`` zero and sub-tick delays from
    inside the dispatch loop, around clock ``base``, interleaved with
    timers that were scheduled ``base`` seconds ahead (beyond the wheel's
    256 s horizon they sit in the heap overflow) and with calls made from
    outside, between two ``run(until=...)`` slices.  Returns the firing
    log with ``pending`` read at every callback and around every slice."""
    log = []
    optimized = isinstance(sim, Simulator)

    def note(tag):
        log.append((sim.now, tag, sim.pending))
        if optimized:
            assert sim.queued == _census(sim)
            assert sim.pending == sim.queued - sim._cancelled

    def burst(tag, depth):
        note(tag)
        if depth:
            for k, delay in enumerate(SUB_TICK):
                sim.schedule_fast(delay, burst, tag * 10 + k, depth - 1)
            # A slotted entry for the same tick takes the _push route
            # into the same batch; one of the pair is cancelled.
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

    # Slices that end inside a tick that still has entries to drain; the
    # calls between them come from outside the dispatch loop.
    for k, until in enumerate((base + 15e-6, base + 110e-6, base + 260e-6)):
        sim.run(until=until)
        log.append(("slice", sim.now, sim.pending))
        sim.schedule_fast(0.0, note, 7000 + 10 * k)
        sim.schedule_fast(20e-6, burst, 7001 + 10 * k, 1)
        sim.schedule_fast(121e-6, note, 7002 + 10 * k)
        log.append(("armed", sim.now, sim.pending))
    sim.run()
    log.append(("idle", sim.now, sim.pending))
    return log


@pytest.mark.parametrize("base", [0.25, 1000.0], ids=["near", "heap-overflow"])
@pytest.mark.parametrize("use_wheel", [True, False], ids=["wheel", "heap"])
def test_same_tick_schedule_fast_matches_reference(use_wheel, base):
    sim = Simulator(use_wheel=use_wheel)
    got = _same_tick_workload(sim, base)
    want = _same_tick_workload(ReferenceSimulator(), base)
    assert len(got) > 300
    assert got == want
    assert sim.pending == 0 and sim.queued == 0
    if use_wheel and base > 256.0:
        # The far timers really did wait in the overflow heap.
        probe = Simulator(use_wheel=True)
        probe.schedule_at(base, lambda: None)
        assert len(probe._heap) == 1
