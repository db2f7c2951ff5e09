"""Fluid backend invariants: conservation, determinism, dt-robustness.

The mean-field engine has no RNG and an exact-per-step queue update, so
these tests pin hard guarantees, not tolerances-of-convenience:
conservation holds to float rounding at *every* step, identical
scenarios produce identical bytes, and halving ``dt`` moves the
observables only within the integrator's documented tolerance.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.experiments import manyflows, zoo_grid
from repro.experiments.common import FAST, PAPER
from repro.sim import fluid, queues
from repro.sim.fluid import FluidClass, FluidResult, FluidScenario, run_fluid
from repro.sim.queues import (
    FluidNotSupported,
    FluidQueueLaw,
    RedFluidLaw,
    REDParams,
    fluid_law_kinds,
    make_fluid_law,
    red_drop_probability,
)
from repro.tcp.fluid_maps import fluid_map_names, make_fluid_map


def two_class(queue="droptail", n=500, duration=4.0, dt=0.005,
              per_flow_bps=400e3, buffer_per_flow=5, **kwargs):
    """The canonical convergence-pair scenario at fluid-test size."""
    total = 2 * n
    return FluidScenario(
        classes=(
            FluidClass("near", "newreno", n=n, rtt=0.060),
            FluidClass("far", "newreno", n=n, rtt=0.140),
        ),
        capacity_bps=total * per_flow_bps,
        buffer_pkts=buffer_per_flow * total,
        queue=queue,
        duration=duration,
        dt=dt,
        **kwargs,
    )


class TestConservation:
    """offered = delivered + dropped + dq at every single step."""

    @pytest.mark.parametrize("queue", sorted(fluid_law_kinds()))
    def test_per_step_residual_is_float_rounding(self, queue):
        res = run_fluid(two_class(queue=queue))
        assert res.max_residual < 1e-9
        assert np.abs(res.residuals).max() == res.max_residual

    def test_global_balance_closes_with_final_queue(self):
        res = run_fluid(two_class())
        backlog = res.q_trace[-1]
        assert res.offered_pkts == pytest.approx(
            res.delivered_pkts + res.dropped_pkts + backlog, abs=1e-6
        )

    def test_overloaded_droptail_still_conserves(self):
        # Half the fair-share capacity: the queue pins at B and the
        # overflow branch carries the balance.
        scn = two_class(per_flow_bps=200e3, buffer_per_flow=3)
        res = run_fluid(scn)
        assert res.dropped_pkts > 0
        assert res.q_trace.max() == pytest.approx(scn.buffer_pkts)
        assert res.max_residual < 1e-9


class TestDeterminism:
    def test_identical_scenarios_identical_bytes(self):
        a = run_fluid(two_class())
        b = run_fluid(two_class())
        assert a.throughput_share == b.throughput_share
        assert a.class_loss_event_rate == b.class_loss_event_rate
        for name in ("q_trace", "w_trace", "drop_rate_trace", "x_trace",
                     "residuals"):
            assert np.array_equal(getattr(a, name), getattr(b, name))

    def test_red_law_state_does_not_leak_between_runs(self):
        # make_fluid_law builds fresh state per scenario; the EWMA in a
        # previous run must not shift a later identical run.
        first = run_fluid(two_class(queue="red"))
        second = run_fluid(two_class(queue="red"))
        assert np.array_equal(first.q_trace, second.q_trace)


class TestObservables:
    def test_shares_sum_to_one_and_favor_short_rtt(self):
        res = run_fluid(two_class())
        assert sum(res.throughput_share) == pytest.approx(1.0)
        near, far = res.throughput_share
        assert near > far  # AIMD's RTT bias survives the fluid limit

    def test_symmetric_classes_split_evenly(self):
        scn = FluidScenario(
            classes=(FluidClass("a", "newreno", n=300, rtt=0.080),
                     FluidClass("b", "newreno", n=300, rtt=0.080)),
            capacity_bps=600 * 400e3,
            buffer_pkts=3000,
            duration=4.0,
            dt=0.005,
        )
        res = run_fluid(scn)
        assert res.throughput_share[0] == pytest.approx(0.5, abs=1e-6)

    def test_w_max_cap_is_respected(self):
        scn = FluidScenario(
            classes=(FluidClass("capped", "newreno", n=100, rtt=0.100,
                                w_max=6.0, ssthresh0=3.0),),
            capacity_bps=100 * 800e3,
            buffer_pkts=800,
            duration=3.0,
            dt=0.005,
        )
        res = run_fluid(scn)
        assert res.w_trace.max() <= 6.0 + 1e-12

    def test_loss_rate_and_events_in_lossy_regime(self):
        # warmup=0 so the (single, endless) overload episode's start
        # falls inside the measurement window — at the overloaded fixed
        # point the queue pins at B and drops never pause, which is
        # exactly why the convergence suite compares per-flow rates,
        # not episode counts.
        res = run_fluid(two_class(per_flow_bps=200e3, buffer_per_flow=3,
                                  warmup=0.0))
        assert 0.0 < res.loss_rate < 1.0
        assert res.loss_event_count >= 1
        assert all(r > 0 for r in res.class_loss_event_rate)

    def test_delayed_start_class_delivers_nothing_early(self):
        scn = FluidScenario(
            classes=(FluidClass("now", "newreno", n=200, rtt=0.060),
                     FluidClass("late", "newreno", n=200, rtt=0.060,
                                start=2.0)),
            capacity_bps=400 * 400e3,
            buffer_pkts=2000,
            duration=4.0,
            dt=0.005,
            warmup=0.0,
        )
        res = run_fluid(scn)
        before = res.times < 2.0
        assert res.x_trace[before, 1].max() == 0.0
        assert res.x_trace[~before, 1].max() > 0.0


class TestDtRobustness:
    """Halving dt must move results only within integrator tolerance."""

    @settings(max_examples=8, deadline=None)
    @given(
        per_flow_kbps=st.integers(min_value=240, max_value=800),
        buffer_per_flow=st.integers(min_value=3, max_value=10),
        rtt_far_ms=st.integers(min_value=100, max_value=220),
    )
    def test_halving_dt_is_stable(self, per_flow_kbps, buffer_per_flow,
                                  rtt_far_ms):
        def result(dt):
            scn = FluidScenario(
                classes=(
                    FluidClass("near", "newreno", n=200, rtt=0.060),
                    FluidClass("far", "newreno", n=200,
                               rtt=rtt_far_ms / 1e3),
                ),
                capacity_bps=400 * per_flow_kbps * 1e3,
                buffer_pkts=buffer_per_flow * 400,
                duration=3.0,
                dt=dt,
            )
            return run_fluid(scn)

        coarse, fine = result(0.010), result(0.005)
        assert coarse.throughput_share[0] == pytest.approx(
            fine.throughput_share[0], abs=0.05
        )
        assert coarse.loss_rate == pytest.approx(fine.loss_rate, abs=0.02)
        assert fine.max_residual < 1e-9


class TestRegistries:
    def test_fluid_maps_cover_the_issue_protocols(self):
        assert {"reno", "newreno", "paced"} <= set(fluid_map_names())

    def test_fluid_laws_cover_droptail_and_red(self):
        assert {"droptail", "red"} <= set(fluid_law_kinds())

    def test_unsupported_sender_raises_fluid_not_supported(self):
        with pytest.raises(FluidNotSupported, match="bbr"):
            make_fluid_map("bbr")

    def test_unknown_sender_raises_value_error(self):
        with pytest.raises(ValueError, match="unknown"):
            make_fluid_map("carrier-pigeon")

    def test_unsupported_queue_kind_names_the_supported_set(self):
        with pytest.raises(FluidNotSupported, match="droptail"):
            make_fluid_law("codel", 100, service_rate_pps=1000.0)

    def test_unknown_queue_kind_raises_value_error(self):
        with pytest.raises(ValueError, match="unknown"):
            make_fluid_law("teleport", 100, service_rate_pps=1000.0)

    def test_scenario_validate_fails_fast(self):
        scn = two_class(queue="codel")
        with pytest.raises(FluidNotSupported):
            scn.validate()


class TestRedFluidLaw:
    def test_matches_the_packet_ramp_on_the_averaged_queue(self):
        params = REDParams()
        law = RedFluidLaw(1000, service_rate_pps=1000.0, params=params)
        # Feed a constant queue long enough for the EWMA to converge.
        p = 0.0
        for _ in range(5000):
            p = law.drop_probability(30.0, 1000.0, 0.001)
        assert p == pytest.approx(red_drop_probability(30.0, params), rel=1e-3)

    def test_probability_monotone_in_queue(self):
        law = RedFluidLaw(1000, service_rate_pps=1000.0)
        lo = [law.drop_probability(10.0, 500.0, 0.01) for _ in range(200)][-1]
        law.reset()
        hi = [law.drop_probability(60.0, 500.0, 0.01) for _ in range(200)][-1]
        assert 0.0 <= lo < hi <= 1.0


class RecordingLaw(FluidQueueLaw):
    """Logs every call; drops early in proportion to occupancy."""

    def __init__(self, capacity_pkts, service_rate_pps):
        super().__init__(capacity_pkts, service_rate_pps)
        self.log = []

    def reset(self):
        self.log.append("reset")

    def drop_probability(self, q, arrival_rate_pps, dt):
        self.log.append((q, arrival_rate_pps, dt))
        return min(0.3, 0.5 * q / self.capacity)


class TestQueueLawContract:
    """``drop_probability`` is "called exactly once per step in time
    order" (RED's EWMA depends on it): not hoisted, memoised or skipped."""

    def test_one_call_per_step_with_traffic_in_step_order(self, monkeypatch):
        laws = []

        def factory(capacity_pkts, *, service_rate_pps, **kwargs):
            laws.append(RecordingLaw(capacity_pkts, service_rate_pps))
            return laws[-1]

        # "codel" is a queue kind with no shipped fluid law.
        monkeypatch.setitem(queues._FLUID_LAW_REGISTRY, "codel", factory)
        scn = FluidScenario(
            classes=(FluidClass("a", "newreno", n=40, rtt=0.020, start=0.05),
                     FluidClass("b", "paced", n=60, rtt=0.045, start=0.10)),
            capacity_bps=100 * 8000.0 * 60, buffer_pkts=120, queue="codel",
            duration=1.0, dt=0.002, warmup=0.0)
        res = run_fluid(scn)
        (law,) = laws
        assert law.log[0] == "reset" and law.log.count("reset") == 1
        calls = law.log[1:]

        # Rebuild each step's (q, A) from the traces alone: the state a
        # step sees is what the previous step left.
        C = scn.capacity_pps
        expected = []
        for i in range(res.steps):
            t = i * scn.dt
            q = res.q_trace[i - 1].item() if i else 0.0
            A = 0.0
            for k, c in enumerate(scn.classes):
                w = res.w_trace[i - 1, k].item() if i else c.w0
                A += c.n * w / (c.rtt + q / C) if t >= c.start else 0.0
            if A > 0.0:
                expected.append((q, A, scn.dt))
        # 25 leading steps have no active class: no call for those.
        assert len(expected) == res.steps - 25
        assert calls == expected
        assert res.dropped_pkts > 0 and max(q for q, _, _ in calls) > 0


class _Built(Exception):
    """Carries the scenario a driver built out of the patched run_fluid."""


def _capture(scenario):
    raise _Built(scenario)


class TestScenarioValidation:
    @pytest.mark.parametrize("warmup", [5.0, 7.5, 4.9951, -0.001,
                                        float("nan"), float("inf")])
    def test_warmup_must_leave_a_step_to_measure(self, warmup):
        # Used to run and report all-zero shares, rates and loss.
        with pytest.raises(ValueError, match=f"warmup={warmup}"):
            two_class(duration=5.0, dt=0.005, warmup=warmup)

    def test_warmup_at_the_last_step_is_measurable(self):
        scn = two_class(duration=5.0, dt=0.005, warmup=999 * 0.005)
        res = run_fluid(scn)
        assert min(res.throughput_pps) > 0
        assert sum(res.throughput_share) == pytest.approx(1.0)

    def test_default_warmup_of_a_one_step_run_is_refused(self):
        with pytest.raises(ValueError, match="no step would be measured"):
            two_class(duration=0.007, dt=0.005)
        assert two_class(duration=0.007, dt=0.005, warmup=0.0).steps == 1

    @pytest.mark.parametrize("duration", [float("nan"), float("inf"), -1.0])
    def test_duration_must_be_finite(self, duration):
        # NaN used to surface as "cannot convert float NaN to integer".
        with pytest.raises(ValueError, match=f"duration={duration}"):
            two_class(duration=duration)

    @pytest.mark.parametrize("dt", [float("nan"), float("inf"), 0.0, -0.001])
    def test_dt_must_be_finite_and_positive(self, dt):
        with pytest.raises(ValueError, match=f"dt={dt}"):
            two_class(dt=dt)

    @pytest.mark.parametrize("packet_size", [0, -1000])
    def test_packet_size_must_be_positive(self, packet_size):
        # 0 used to be a ZeroDivisionError out of capacity_pps.
        with pytest.raises(ValueError, match=f"got {packet_size}"):
            two_class(packet_size=packet_size)

    @pytest.mark.parametrize("start", [-1.0, float("nan"), float("inf")])
    def test_class_start_must_be_finite_and_non_negative(self, start):
        with pytest.raises(ValueError, match=f"start >= 0, got {start}"):
            FluidClass("x", "newreno", n=1, rtt=0.05, start=start)

    @pytest.mark.parametrize("scale", [FAST, PAPER], ids=["fast", "paper"])
    def test_every_scenario_src_builds_is_still_valid(self, scale, monkeypatch):
        built = [manyflows.fluid_scenario(n, scale) for n in (100, 1000, 10000)]
        monkeypatch.setattr(fluid, "run_fluid", _capture)
        for rtt_name, rtt in zoo_grid.DEFAULT_RTT_CLASSES:
            with pytest.raises(_Built) as caught:
                zoo_grid.run_zoo_cell(1, scale, "paced", "red", rtt=rtt,
                                      rtt_name=rtt_name, backend="fluid")
            built.append(caught.value.args[0])
        assert len(built) == 7
        for scn in built:
            # Constructed without a ValueError; the measured window is whole.
            scn.validate()
            assert 0.0 <= scn.warmup_s <= (scn.steps - 1) * scn.dt < scn.duration

    def test_dt_must_not_exceed_smallest_rtt(self):
        with pytest.raises(ValueError, match="dt"):
            two_class(dt=0.2)

    def test_needs_at_least_one_class(self):
        with pytest.raises(ValueError, match="class"):
            FluidScenario(classes=(), capacity_bps=1e6, buffer_pkts=100)

    def test_class_field_validation(self):
        with pytest.raises(ValueError, match="n >= 1"):
            FluidClass("x", "newreno", n=0, rtt=0.05)
        with pytest.raises(ValueError, match="rtt"):
            FluidClass("x", "newreno", n=1, rtt=0.0)
        with pytest.raises(ValueError, match="w_max"):
            FluidClass("x", "newreno", n=1, rtt=0.05, w0=4.0, w_max=2.0)

    def test_result_is_a_dataclass_with_traces(self):
        res = run_fluid(two_class(duration=1.0))
        assert isinstance(res, FluidResult)
        assert len(res.times) == res.steps
        assert res.x_trace.shape == (res.steps, 2)
