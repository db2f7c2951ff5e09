"""``run_fluid`` against the array stepper it replaced, byte for byte.

The scalar loop in :mod:`repro.sim.fluid` claims *the same IEEE
operations in the same order* as the numpy loop it replaced, which now
lives in :mod:`tests.sim.fluid_oracle`.  These tests hold it to that:
every ``FluidResult`` field equal to the bit for K = 1…7 classes (where
``ndarray.sum`` is the left-to-right sum the scalar loop computes),
within 1e-12 relative for K = 8…12 (numpy sums pairwise there; the
left-to-right order is the documented definition), and one whole fluid
zoo grid with the oracle patched back in producing the same text.
"""

import dataclasses
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.experiments import zoo_grid
from repro.experiments.common import FAST
from repro.sim import fluid, queues
from repro.sim.fluid import FluidClass, FluidResult, FluidScenario, run_fluid
from repro.tcp import fluid_maps
from tests.sim.fluid_oracle import ARRAY_GROWTH, run_fluid_arrays


# ---------------------------------------------------------------------------
# comparison helpers
# ---------------------------------------------------------------------------
def field_image(value):
    """What "equal to the bit" means for one ``FluidResult`` field."""
    if isinstance(value, np.ndarray):
        return (value.shape, str(value.dtype), value.flags.c_contiguous,
                value.tobytes())
    return repr(value)


def assert_byte_equal(got: FluidResult, want: FluidResult) -> None:
    for f in dataclasses.fields(FluidResult):
        assert field_image(getattr(got, f.name)) == field_image(
            getattr(want, f.name)), f"FluidResult.{f.name} differs"


def assert_close(got: FluidResult, want: FluidResult, rtol: float) -> None:
    """Every float within ``rtol`` of its counterpart, the rest equal."""
    for f in dataclasses.fields(FluidResult):
        a, b = getattr(got, f.name), getattr(want, f.name)
        if f.name in ("residuals", "max_residual"):
            # Rounding defects of O(1e-13) packets: bounded, not compared.
            assert np.abs(a).max() < 1e-9 and np.abs(b).max() < 1e-9
        elif isinstance(a, (np.ndarray, float)) or (
                isinstance(a, tuple) and isinstance(a[0], float)):
            np.testing.assert_allclose(a, b, rtol=rtol, atol=0.0,
                                       err_msg=f"FluidResult.{f.name}")
        else:
            assert a == b, f"FluidResult.{f.name}"


# ---------------------------------------------------------------------------
# a second growth law: per-class dispatch, and a law that reads ssthresh
# ---------------------------------------------------------------------------
# With the shipped AIMD law the *value* of ssthresh after a cut never
# shows: dt <= RTT keeps the window at or above beta * W, so ``w <
# ssthresh`` stays false until the 2.0 floor, and a cut computed from the
# wrong window would be invisible.  This BIC-flavoured law closes half
# the distance to the pre-loss window ``ssthresh / beta`` per RTT (plus a
# tenth of a segment), which makes the value part of the growth contract
# the stepper is held to.
_BIC_BETA = 0.875


def _bic_growth(w: float, ssthresh: float, rtt: float) -> float:
    if w < ssthresh:
        return w * (fluid_maps._LN2 / rtt)
    return (0.1 + 0.5 * abs(ssthresh / _BIC_BETA - w)) / rtt


def _bic_growth_arrays(W, ssthresh, rtt):
    return np.where(
        W < ssthresh, W * (fluid_maps._LN2 / rtt),
        (0.1 + 0.5 * np.abs(ssthresh / _BIC_BETA - W)) / rtt)


#: Registered under a sender name that has no shipped fluid map.
BIC = fluid_maps.FluidWindowMap(
    name="bic", beta=_BIC_BETA, rate_based=False,
    description="test-only binary-search law", growth=_bic_growth)


@pytest.fixture(autouse=True, scope="module")
def _bic_registered():
    with mock.patch.dict(fluid_maps._FLUID_MAP_REGISTRY, {"bic": BIC}), \
            mock.patch.dict(ARRAY_GROWTH, {_bic_growth: _bic_growth_arrays}):
        yield


# ---------------------------------------------------------------------------
# scenario strategy
# ---------------------------------------------------------------------------
SENDERS = ("reno", "newreno", "paced", "bic")


@st.composite
def fluid_classes(draw, k: int) -> FluidClass:
    w0 = draw(st.sampled_from([1.0, 2.0, 2.0, 4.0]))
    capped = draw(st.booleans())
    return FluidClass(
        name=f"c{k}",
        sender=draw(st.sampled_from(SENDERS)),
        n=draw(st.integers(min_value=1, max_value=400)),
        rtt=draw(st.integers(min_value=2, max_value=200)) / 1e3,
        # Starts land mid-run (durations below are 0.05-1.2 s) or never.
        start=draw(st.sampled_from([0.0, 0.0, 0.0, 0.013, 0.1, 0.4, 9.0])),
        w0=w0,
        w_max=(w0 + draw(st.integers(min_value=0, max_value=60))
               if capped else 1e9),
        ssthresh0=(float(draw(st.integers(min_value=1, max_value=40)))
                   if draw(st.booleans()) else 1e9),
    )


@st.composite
def fluid_scenarios(draw, min_classes: int, max_classes: int) -> FluidScenario:
    K = draw(st.integers(min_value=min_classes, max_value=max_classes))
    classes = tuple(draw(fluid_classes(k)) for k in range(K))
    flows = sum(c.n for c in classes)
    smallest = min(c.rtt for c in classes)
    dt = min(0.004, smallest / draw(st.sampled_from([1, 2, 5, 12])))
    steps = draw(st.integers(min_value=12, max_value=300))
    duration = steps * dt
    warmup = draw(st.sampled_from([None, 0.0, 0.25, 0.9]))
    return FluidScenario(
        classes=classes,
        # 10-1500 packets/s of fair share and 0.5-12 packets of buffer per
        # flow: from permanently overloaded to never lossy.
        capacity_bps=flows * 8000.0 * draw(
            st.sampled_from([10, 40, 150, 400, 1500])),
        buffer_pkts=max(1, int(flows * draw(
            st.sampled_from([0.5, 1, 3, 12])))),
        queue=draw(st.sampled_from(sorted(queues.fluid_law_kinds()))),
        duration=duration,
        dt=dt,
        warmup=None if warmup is None else warmup * (steps - 1) * dt,
    )


# ---------------------------------------------------------------------------
# (a) byte equality where the arithmetic is unchanged: K = 1..7
# ---------------------------------------------------------------------------
@settings(max_examples=300)
@given(fluid_scenarios(1, 7))
def test_every_field_is_byte_equal_to_the_array_stepper(scn):
    assert_byte_equal(run_fluid(scn), run_fluid_arrays(scn))


def many_class_scenario(K: int, queue: str) -> FluidScenario:
    """K staggered classes of mixed senders, RTTs 20 ms upward, capped."""
    return FluidScenario(
        classes=tuple(
            FluidClass(f"c{k}", SENDERS[k % 4], n=50 + 10 * k,
                       rtt=0.02 + 0.03 * k, start=0.1 * (k % 3),
                       w_max=40.0 + k, ssthresh0=20.0)
            for k in range(K)),
        capacity_bps=K * 60 * 300e3, buffer_pkts=150 * K,
        queue=queue, duration=2.0, dt=0.004, warmup=0.5)


def sizing_scenarios():
    """The fixed scenarios the rewrite was sized on (ISSUE 20)."""
    for queue in sorted(queues.fluid_law_kinds()):
        for rtt in (0.002, 0.015, 0.050, 0.200):
            yield FluidScenario(
                classes=(FluidClass("baseline", "newreno", n=8, rtt=rtt),
                         FluidClass("challenger", "paced", n=8, rtt=rtt)),
                capacity_bps=50e6,
                buffer_pkts=max(4, int(50e6 / 8000 * rtt * 0.5)),
                queue=queue, duration=max(0.6, 20 * rtt),
                dt=min(0.004, rtt / 12.0), warmup=0.0)
        for K in range(1, 8):
            yield many_class_scenario(K, queue)
        # Intermittent loss episodes under the law that reads ssthresh:
        # between episodes the window climbs back towards ssthresh / beta.
        yield FluidScenario(
            classes=(FluidClass("search", "bic", n=50, rtt=0.050),
                     FluidClass("aimd", "newreno", n=50, rtt=0.080)),
            capacity_bps=100 * 800e3, buffer_pkts=500, queue=queue,
            duration=6.0, dt=0.004)


@pytest.mark.parametrize(
    "scn", list(sizing_scenarios()),
    ids=lambda s: f"{s.queue}-{s.classes[0].sender}-K{len(s.classes)}"
                  f"-{s.classes[0].rtt * 1e3:g}ms")
def test_sizing_scenarios_are_byte_equal_and_not_vacuous(scn):
    got = run_fluid(scn)
    assert_byte_equal(got, run_fluid_arrays(scn))
    # Every one of them exercises the feedback path (expm1, the ssthresh
    # cut, the history ring), not just loss-free growth.
    assert got.dropped_pkts > 0
    assert any(r > 0 for r in got.class_loss_event_rate)


def test_feedback_delay_longer_than_the_run_reads_zero_history():
    # delay = 50 steps > 20 steps: every read lands before the first row.
    scn = FluidScenario(
        classes=(FluidClass("slow", "newreno", n=100, rtt=0.2, w0=4.0),),
        capacity_bps=100 * 8000.0 * 5, buffer_pkts=50,
        duration=0.08, dt=0.004, warmup=0.0)
    got = run_fluid(scn)
    assert got.dropped_pkts > 0 and got.class_loss_event_rate == (0.0,)
    assert_byte_equal(got, run_fluid_arrays(scn))


# ---------------------------------------------------------------------------
# (b) K >= 8: numpy sums pairwise, the scalar loop left to right
# ---------------------------------------------------------------------------
# Fixed scenarios, not hypothesis: a cut fires on ``delta_d > 0`` however
# small the overflow behind it, so in ill-conditioned regimes a last-ulp
# difference in A grows without bound (over 400 drawn K = 8..12 scenarios
# the worst field drifted 5e-16 in the median, 5e-13 at the 90th
# percentile and O(1) at the maximum).  That is a property of the model,
# and the reason K <= 7 is held to bytes rather than to a tolerance.
@pytest.mark.parametrize("queue", sorted(queues.fluid_law_kinds()))
@pytest.mark.parametrize("K", range(8, 13))
def test_eight_or_more_classes_agree_to_1e_12(K, queue):
    scn = many_class_scenario(K, queue)
    got, want = run_fluid(scn), run_fluid_arrays(scn)
    assert got.dropped_pkts > 0
    assert_close(got, want, rtol=1e-12)


# ---------------------------------------------------------------------------
# (c) a whole fluid zoo grid with the oracle patched back in
# ---------------------------------------------------------------------------
def test_fluid_zoo_grid_text_is_identical_under_the_oracle(monkeypatch):
    # The ledger's fluid_zoo_grid workload: 24 cells, four RTT classes.
    # One seed: the fluid cells draw nothing from it.
    scale = replace(FAST, fig7_duration=0.5)
    shipped = zoo_grid.run_zoo(1, scale, backend="fluid").to_text()
    monkeypatch.setattr(fluid, "run_fluid", run_fluid_arrays)
    assert zoo_grid.run_zoo(1, scale, backend="fluid").to_text() == shipped
