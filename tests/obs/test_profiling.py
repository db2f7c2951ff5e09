"""Unit tests for event-loop profiling via ``Simulator.profile()``."""

import functools

import pytest

from repro.obs.profiling import CallbackStats, EventLoopProfile, callback_name
from repro.sim.engine import Simulator
from repro.sim.reference import ReferenceSimulator


def tick():
    pass


class TestCallbackName:
    def test_uses_qualname(self):
        assert callback_name(tick) == "tick"
        assert "TestCallbackName" in callback_name(self.test_uses_qualname)

    def test_falls_back_to_type_name(self):
        assert callback_name(functools.partial(tick)) == "partial"

    def test_builtin_has_qualname(self):
        assert callback_name(len) == "len"

    def test_callable_instance_without_qualname(self):
        class Cb:
            def __call__(self):
                pass

        assert callback_name(Cb()) == "Cb"


class TestCallbackStats:
    def test_starts_empty(self):
        cs = CallbackStats()
        assert cs.count == 0
        assert cs.total_time == 0.0

    def test_zero_count_mean_is_zero(self):
        # No observations must not divide by zero.
        assert CallbackStats().as_dict() == {
            "count": 0, "total_time_s": 0.0, "mean_time_us": 0.0,
        }

    def test_mean_time_us_math(self):
        cs = CallbackStats()
        cs.count = 4
        cs.total_time = 0.002  # 2 ms over 4 calls = 500 us each
        d = cs.as_dict()
        assert d["count"] == 4
        assert d["total_time_s"] == pytest.approx(0.002)
        assert d["mean_time_us"] == pytest.approx(500.0)

    def test_aggregation_via_record_event(self):
        # record_event must aggregate same-named callbacks into one bucket
        # (counts add, durations add) and keep distinct names separate.
        prof = EventLoopProfile()
        prof.record_event(tick, 0.1, 1)
        prof.record_event(tick, 0.3, 2)
        prof.record_event(len, 0.05, 1)
        assert set(prof.callbacks) == {"tick", "len"}
        assert prof.callbacks["tick"].count == 2
        assert prof.callbacks["tick"].total_time == pytest.approx(0.4)
        assert prof.callbacks["len"].count == 1
        assert prof.events == 3

    def test_partials_share_one_fallback_bucket(self):
        prof = EventLoopProfile()
        prof.record_event(functools.partial(tick), 0.1, 1)
        prof.record_event(functools.partial(len, ()), 0.2, 1)
        assert list(prof.callbacks) == ["partial"]
        assert prof.callbacks["partial"].count == 2

    def test_cancelled_pops_counted_directly(self):
        # The profile reads the engine's cancelled-pop counter as a delta:
        # corpses drained before the block stay out of it.
        sim = Simulator()
        for h in [sim.schedule(0.1, tick) for _ in range(2)]:
            h.cancel()
        sim.run()
        assert sim.cancelled_popped == 2
        handles = [sim.schedule(1.0 + 0.1 * i, tick) for i in range(4)]
        for h in handles[:3]:
            h.cancel()
        with sim.profile() as prof:
            sim.run()
        assert sim.cancelled_popped == 5
        assert prof.cancelled_popped == 3
        assert prof.events == 1
        assert prof.cancelled_ratio == pytest.approx(0.75)


class TestProfileContext:
    def test_captures_events_and_callbacks(self):
        sim = Simulator()
        for i in range(5):
            sim.schedule(0.1 * (i + 1), tick)
        with sim.profile() as prof:
            sim.run()
        assert prof.events == 5
        assert prof.callbacks["tick"].count == 5
        assert prof.callbacks["tick"].total_time >= 0.0
        assert prof.events_per_sec > 0
        assert prof.sim_end - prof.sim_start == pytest.approx(0.5)
        assert prof.max_heap_size >= 1

    def test_counts_cancelled_pops(self):
        sim = Simulator()
        handles = [sim.schedule(0.1 * (i + 1), tick) for i in range(10)]
        for h in handles[:4]:  # stay under the compaction threshold
            h.cancel()
        with sim.profile() as prof:
            sim.run()
        assert prof.events == 6
        assert prof.cancelled_popped == 4
        assert prof.cancelled_ratio == pytest.approx(0.4)

    @pytest.mark.parametrize("engine", [Simulator, ReferenceSimulator])
    def test_step_reports_to_profile(self, engine):
        sim = engine()
        handles = [sim.schedule(0.1 * (i + 1), tick) for i in range(3)]
        handles[0].cancel()
        with sim.profile() as prof:
            assert sim.step()
            assert sim.step()
            assert not sim.step()
        assert prof.events == 2
        assert prof.callbacks["tick"].count == 2
        assert prof.cancelled_popped == 1
        assert prof.max_heap_size == 1

    @pytest.mark.parametrize("engine", [Simulator, ReferenceSimulator])
    def test_peek_time_discards_are_counted(self, engine):
        sim = engine()
        handles = [sim.schedule(0.1 * (i + 1), tick) for i in range(3)]
        handles[0].cancel()
        handles[1].cancel()
        with sim.profile() as prof:
            assert sim.peek_time() == pytest.approx(0.3)
            sim.run()
        assert sim.cancelled_popped == 2
        assert (prof.events, prof.cancelled_popped) == (1, 2)

    def test_profiler_uninstalled_after_block(self):
        sim = Simulator()
        with sim.profile():
            pass
        sim.schedule(1.0, tick)
        sim.run()  # must not touch the (stopped) profiler
        assert sim._profiler is None

    def test_nested_profiles_restore_previous(self):
        sim = Simulator()
        with sim.profile() as outer:
            sim.schedule(1.0, tick)
            sim.run(until=1.0)
            with sim.profile() as inner:
                sim.schedule(1.0, tick)
                sim.run()
            sim.schedule(1.0, tick)
            sim.run()
        assert inner.events == 1
        assert outer.events == 2  # inner's event not double-counted

    def test_as_dict_ranks_callbacks_and_caps_top(self):
        prof = EventLoopProfile()
        prof.record_event(tick, 0.5, 3)
        prof.record_event(len, 0.1, 2)
        d = prof.as_dict(top=1)
        assert list(d["callbacks"]) == ["tick"]
        assert d["events"] == 2
        assert d["max_heap_size"] == 3

    def test_empty_profile_derived_stats(self):
        prof = EventLoopProfile()
        assert prof.events_per_sec == 0.0
        assert prof.cancelled_ratio == 0.0

    def test_compactions_delta_reported(self):
        sim = Simulator()
        with sim.profile() as prof:
            handles = [sim.schedule(1.0, tick) for _ in range(200)]
            for h in handles[:150]:
                h.cancel()
            sim.run()
        assert prof.compactions >= 1
        assert prof.as_dict()["heap_compactions"] == prof.compactions
