"""Unit tests for the event engine."""

import math

import pytest

from repro.sim.engine import SimulationError, Simulator


def test_events_run_in_time_order():
    sim = Simulator()
    fired = []
    sim.schedule(2.0, fired.append, "late")
    sim.schedule(1.0, fired.append, "early")
    sim.schedule(1.5, fired.append, "mid")
    sim.run()
    assert fired == ["early", "mid", "late"]
    assert sim.now == 2.0


def test_simultaneous_events_run_in_scheduling_order():
    sim = Simulator()
    fired = []
    for i in range(10):
        sim.schedule(1.0, fired.append, i)
    sim.run()
    assert fired == list(range(10))


def test_schedule_at_absolute_time():
    sim = Simulator()
    fired = []
    sim.schedule_at(3.25, fired.append, "x")
    sim.run()
    assert fired == ["x"]
    assert sim.now == 3.25


def test_run_until_is_inclusive_and_advances_clock():
    sim = Simulator()
    fired = []
    sim.schedule(1.0, fired.append, "a")
    sim.schedule(5.0, fired.append, "b")
    sim.run(until=2.0)
    assert fired == ["a"]
    assert sim.now == 2.0  # clock advanced to the horizon
    sim.run(until=5.0)
    assert fired == ["a", "b"]


def test_event_at_exact_until_boundary_fires():
    sim = Simulator()
    fired = []
    sim.schedule(2.0, fired.append, "edge")
    sim.run(until=2.0)
    assert fired == ["edge"]


def test_cancelled_event_does_not_fire():
    sim = Simulator()
    fired = []
    ev = sim.schedule(1.0, fired.append, "x")
    sim.schedule(2.0, fired.append, "y")
    ev.cancel()
    sim.run()
    assert fired == ["y"]


def test_cancel_is_idempotent():
    sim = Simulator()
    ev = sim.schedule(1.0, lambda: None)
    ev.cancel()
    ev.cancel()
    sim.run()
    assert sim.events_processed == 0


def test_scheduling_in_the_past_raises():
    sim = Simulator()
    sim.schedule(1.0, lambda: None)
    sim.run()
    with pytest.raises(SimulationError):
        sim.schedule_at(0.5, lambda: None)


def test_non_finite_time_raises():
    sim = Simulator()
    with pytest.raises(SimulationError):
        sim.schedule_at(math.nan, lambda: None)
    with pytest.raises(SimulationError):
        sim.schedule(math.inf, lambda: None)


def test_events_can_schedule_more_events():
    sim = Simulator()
    fired = []

    def chain(n):
        fired.append(n)
        if n < 5:
            sim.schedule(1.0, chain, n + 1)

    sim.schedule(0.0, chain, 0)
    sim.run()
    assert fired == [0, 1, 2, 3, 4, 5]
    assert sim.now == 5.0


def test_max_events_budget():
    sim = Simulator()
    fired = []
    for i in range(10):
        sim.schedule(float(i), fired.append, i)
    sim.run(max_events=3)
    assert fired == [0, 1, 2]
    sim.run()
    assert fired == list(range(10))


def test_step_executes_one_event():
    """``run(max_events=1)`` is the single step: one event, clock at it."""
    sim = Simulator()
    fired = []
    sim.schedule(1.0, fired.append, "a")
    sim.schedule(2.0, fired.append, "b")
    sim.run(max_events=1)
    assert fired == ["a"] and sim.now == 1.0
    sim.run(max_events=1)
    assert fired == ["a", "b"] and sim.now == 2.0
    sim.run(max_events=1)
    assert sim.events_processed == 2 and sim.now == 2.0


def test_pending_counts_live_events():
    sim = Simulator()
    ev1 = sim.schedule(1.0, lambda: None)
    sim.schedule(2.0, lambda: None)
    assert sim.pending == 2
    ev1.cancel()
    assert sim.pending == 1


def test_events_processed_counter():
    sim = Simulator()
    for i in range(7):
        sim.schedule(float(i), lambda: None)
    sim.run()
    assert sim.events_processed == 7


def test_reentrant_run_rejected():
    sim = Simulator()

    def nested():
        with pytest.raises(SimulationError):
            sim.run()

    sim.schedule(1.0, nested)
    sim.run()


class TestCancelledEventCompaction:
    def test_mass_cancellation_compacts_the_heap(self):
        sim = Simulator()
        fired = []
        keep = [sim.schedule(float(i), fired.append, i) for i in range(10)]
        doomed = [sim.schedule(100.0, lambda: None) for _ in range(190)]
        for ev in doomed:
            ev.cancel()
        # Corpses outnumbered live events past the size floor: compacted.
        # (Compaction stops below the size floor, so a few corpses may
        # linger — the point is the heap no longer scales with cancels.)
        assert sim.compactions >= 1
        assert len(sim._heap) < 64
        assert sim.pending == 10
        sim.run()
        assert fired == list(range(10))
        del keep

    def test_small_heaps_are_never_compacted(self):
        sim = Simulator()
        handles = [sim.schedule(1.0, lambda: None) for _ in range(20)]
        for ev in handles:
            ev.cancel()
        assert sim.compactions == 0
        assert sim.pending == 0
        sim.run()
        assert sim.events_processed == 0

    def test_compaction_from_inside_a_callback(self):
        """The run loop's heap alias must survive an in-callback compaction."""
        sim = Simulator()
        fired = []
        doomed = [sim.schedule(50.0, lambda: None) for _ in range(150)]

        def cancel_all():
            for ev in doomed:
                ev.cancel()

        sim.schedule(1.0, cancel_all)
        for t in (2.0, 3.0):
            sim.schedule(t, fired.append, t)
        sim.run()
        assert sim.compactions >= 1
        assert fired == [2.0, 3.0]
        assert sim.pending == 0

    def test_cancel_after_pop_does_not_skew_pending(self):
        sim = Simulator()
        ev = sim.schedule(1.0, lambda: None)
        sim.schedule(2.0, lambda: None)
        sim.run(until=1.5)
        ev.cancel()  # already executed; must not count as an in-heap corpse
        assert sim._cancelled == 0
        assert sim.pending == 1

    def test_cancelled_ratio(self):
        sim = Simulator()
        assert sim.cancelled_ratio == 0.0
        handles = [sim.schedule(1.0, lambda: None) for _ in range(10)]
        for ev in handles[:4]:
            ev.cancel()
        assert sim.cancelled_ratio == pytest.approx(0.4)

    def test_pending_stays_exact_through_run_slices(self):
        sim = Simulator()
        handles = [sim.schedule(float(i + 1), lambda: None) for i in range(8)]
        handles[0].cancel()
        sim.run(until=1.5)  # pops the corpse, fires nothing
        assert (sim.pending, sim.queued, sim.cancelled_popped) == (7, 7, 1)
        sim.run(until=4.0)
        assert sim.pending == 4


def test_attach_metrics_exports_live_engine_gauges():
    from repro.obs.metrics import MetricsRegistry

    sim = Simulator()
    reg = MetricsRegistry()
    sim.attach_metrics(reg)
    handles = [sim.schedule(float(i + 1), lambda: None) for i in range(4)]
    handles[-1].cancel()
    g = reg.as_dict()["gauges"]
    assert g["engine.pending"] == 3
    assert g["engine.cancelled_in_heap"] == 1
    assert g["engine.cancelled_ratio"] == pytest.approx(0.25)
    sim.run()
    g = reg.as_dict()["gauges"]
    assert g["engine.events_processed"] == 3
    assert g["engine.sim_time"] == 3.0
    assert g["engine.heap_size"] == 0


class TestRepeatingEventAnchoring:
    def test_schedule_every_fires_on_exact_grid(self):
        """Drift regression: the k-th firing lands at exactly
        ``t0 + k*interval``, not at the sum of k accumulated roundings.

        0.1 is not a binary float, so the old ``now + interval`` re-arm
        drifted off the grid within tens of firings; the anchored form
        must match the analytic grid bit for bit at firing 10_000."""
        sim = Simulator()
        times = []
        rep = sim.schedule_every(0.1, lambda: times.append(sim.now))
        sim.schedule(1001.0, lambda: None)  # keep the run alive
        sim.run()
        rep.cancel()
        n = len(times)
        assert n == 10_010  # every grid point through the keep-alive at 1001
        assert times == [(k + 1) * 0.1 for k in range(n)]  # exact ==
        # the drifting sum provably diverges from this grid
        drifting, t = [], 0.0
        for _ in range(n):
            t += 0.1
            drifting.append(t)
        assert drifting != times

    def test_anchor_is_start_time_not_zero(self):
        sim = Simulator()
        times = []
        sim.schedule(0.25, lambda: sim.schedule_every(0.5, lambda: times.append(sim.now)))
        sim.schedule(3.0, lambda: None)
        sim.run()
        assert times == [0.25 + (k + 1) * 0.5 for k in range(6)]
