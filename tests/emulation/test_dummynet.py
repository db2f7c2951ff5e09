"""Tests for the Dummynet testbed as the Figure 3 spec builds it.

The paper's Dummynet pipe (§3.1) is the Figure 1 dumbbell with three
non-idealities, each now a piece of the one builder: four RTT classes
(:data:`~repro.experiments.fig3_dummynet.RTT_CLASSES`), per-packet
processing noise on the forward bottleneck (``Link(max_noise=...)``,
switched on by ``Scenario.pipe_noise``), and drop timestamps floored to
the 1 ms FreeBSD clock when Figure 3 reads the trace (``quantize``).
"""

from dataclasses import replace

import numpy as np
import pytest

from repro.experiments import FAST
from repro.experiments.fig3_dummynet import (
    CLOCK_TICK,
    PIPE_NOISE,
    RTT_CLASSES,
    fig3_spec,
    quantize,
)
from repro.experiments.scenario import FlowClass, Scenario, run_scenario
from repro.sim import Simulator
from repro.sim.link import Link
from repro.sim.node import Host
from repro.sim.packet import Packet


class TestQuantize:
    def test_floors_to_resolution(self):
        assert quantize(0.0123, 1e-3) == pytest.approx(0.012)
        assert quantize(0.0129999, 1e-3) == pytest.approx(0.012)

    def test_vectorized(self):
        out = quantize(np.array([0.0011, 0.0019, 0.002]), 1e-3)
        np.testing.assert_allclose(out, [0.001, 0.001, 0.002])

    def test_invalid_resolution(self):
        with pytest.raises(ValueError):
            quantize(1.0, 0.0)


class TestQuantizedDropTrace:
    def test_timestamps_are_multiples_of_resolution(self):
        np.testing.assert_allclose(quantize([0.012345, 0.012999]), [0.012, 0.012])
        assert CLOCK_TICK == 1e-3

    def test_identical_ticks_collapse(self):
        """1 ms clocks collapse sub-ms loss spacing to zero intervals —
        the emulation artifact visible in Figure 3's first bin."""
        assert np.all(np.diff(quantize([0.0101, 0.0105, 0.0109])) == 0.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            quantize([0.5], resolution=-1e-3)


class TestNoisyLink:
    def _deliveries(self, **draws):
        sim = Simulator()
        host = Host(sim)
        got = []

        class Sink:
            def receive(self, pkt):
                got.append(sim.now)

        host.attach(1, Sink())
        link = Link(sim, host, 8e6, 0.0, **draws)
        for i in range(100):
            link.send(Packet(1, i, 1000))
        sim.run()
        return np.array(got)

    def test_noise_widens_delivery_times(self):
        gaps = np.diff(self._deliveries(rng=np.random.default_rng(0), max_noise=500e-6))
        assert gaps.min() >= 0.001  # serialization floor
        assert gaps.max() <= 0.001 + 500e-6 + 1e-9
        assert gaps.std() > 0

    def test_zero_noise_equals_plain_link(self):
        got = self._deliveries(rng=np.random.default_rng(0), max_noise=0.0)
        np.testing.assert_array_equal(got, self._deliveries())
        np.testing.assert_allclose(got[:3], [0.001, 0.002, 0.003])

    def test_invalid_noise(self):
        sim = Simulator()
        host = Host(sim)
        with pytest.raises(ValueError):
            Link(sim, host, 1e6, 0.0, rng=np.random.default_rng(0), max_noise=-1.0)
        with pytest.raises(ValueError):  # a draw needs a generator
            Link(sim, host, 1e6, 0.0, max_noise=1e-4)


class TestDummynetConfig:
    def test_rtt_classes_default(self):
        assert RTT_CLASSES == (0.002, 0.010, 0.050, 0.200)
        spec, mean_rtt = fig3_spec(FAST)
        assert spec.pipe_noise == PIPE_NOISE == 200e-6
        assert mean_rtt == pytest.approx(np.mean(RTT_CLASSES))

    def test_validation(self):
        spec, _ = fig3_spec(FAST)
        with pytest.raises(ValueError):
            replace(spec, pipe_noise=-1e-6)


class TestBuildDummynet:
    def test_transfer_runs_and_drops_are_quantized(self):
        done = []
        spec = Scenario(
            classes=(FlowClass("newreno", (0.050,), "t", kwargs={
                "total_packets": 800, "on_complete": done.append}),),
            capacity_bps=10e6, buffer_pkts=20, duration=120.0, bin_width=None,
            pipe_noise=PIPE_NOISE,
        )
        run = run_scenario(spec, 1, "t")
        assert done, "transfer did not complete through dummynet pipe"
        assert len(run.drop_times) > 0
        # Every drop timestamp, as Figure 3 reads it, sits on a 1 ms tick.
        t = quantize(run.drop_times)
        np.testing.assert_allclose(t, np.round(t * 1000) / 1000, atol=1e-12)
        assert np.all((run.drop_times - t >= 0) & (run.drop_times - t < CLOCK_TICK))

    def test_four_rtt_classes_attachable(self):
        spec, _ = fig3_spec(replace(FAST, n_tcp_flows=8))
        (cls,) = spec.classes
        assert cls.rtts == RTT_CLASSES * 2
