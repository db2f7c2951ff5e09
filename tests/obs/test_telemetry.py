"""Unit tests for the flight-recorder telemetry layer (repro.obs.telemetry)."""

import numpy as np
import pytest

from repro.obs.telemetry import (
    DEFAULT_MAX_SAMPLES,
    DEFAULT_STRIDE,
    FlightRecorder,
    TimeSeries,
    flow_summary,
    loss_raster,
)
from repro.obs.runtime import observe_run
from repro.sim.engine import Simulator


class TestTimeSeries:
    def test_retains_all_samples_below_bound(self):
        ts = TimeSeries("x", max_samples=64)
        for i in range(30):
            ts.offer(i * 0.1, float(i))
        assert len(ts) == 30
        assert ts.keep_every == 1
        assert ts.values == [float(i) for i in range(30)]

    def test_decimation_bounds_memory(self):
        ts = TimeSeries("x", max_samples=64)
        for i in range(100_000):
            ts.offer(i * 0.01, float(i))
        assert len(ts) < 64
        assert ts.offered == 100_000
        assert ts.decimations >= 1
        # keep_every doubles per decimation.
        assert ts.keep_every == 2 ** ts.decimations

    def test_decimated_grid_stays_uniform(self):
        ts = TimeSeries("x", max_samples=16)
        for i in range(1000):
            ts.offer(float(i), float(i))
        diffs = np.diff(ts.times)
        assert len(set(diffs.tolist())) == 1  # one uniform stride
        assert diffs[0] == ts.keep_every

    def test_offer_reports_retention(self):
        ts = TimeSeries("x", max_samples=4)
        kept = [ts.offer(float(i), float(i)) for i in range(16)]
        assert kept[0] is True  # first offer always lands
        # Decimation can drop previously-kept samples, never add any.
        assert len(ts) <= sum(kept)
        assert sum(kept) < 16  # skip factor engaged after decimation

    def test_rejects_tiny_bound(self):
        with pytest.raises(ValueError):
            TimeSeries("x", max_samples=2)

    def test_as_dict_round_trips(self):
        ts = TimeSeries("x")
        ts.offer(0.1, 1.5)
        ts.offer(0.2, 2.5)
        d = ts.as_dict()
        assert d["t"] == [0.1, 0.2]
        assert d["v"] == [1.5, 2.5]
        assert d["offered"] == 2
        assert d["keep_every"] == 1


class TestLossRaster:
    def test_counts_and_total(self):
        r = loss_raster([0.1, 0.11, 0.12, 5.0], duration=10.0, bins=10)
        assert r["total"] == 4
        assert sum(r["counts"]) == 4
        assert r["counts"][0] == 3  # the burst lands in the first bin
        assert r["bin_width"] == 1.0

    def test_empty_trace(self):
        r = loss_raster([], duration=1.0, bins=5)
        assert r["total"] == 0
        assert r["counts"] == [0] * 5

    def test_rejects_bad_args(self):
        with pytest.raises(ValueError):
            loss_raster([], duration=0.0)
        with pytest.raises(ValueError):
            loss_raster([], duration=1.0, bins=0)


class TestFlightRecorder:
    def _sim_with_activity(self, until=2.0):
        sim = Simulator()
        state = {"x": 0.0}

        def bump():
            state["x"] += 1.0
            if sim.now < until:
                sim.schedule(0.01, bump)

        sim.schedule(0.01, bump)
        return sim, state

    def test_samples_on_stride(self):
        sim, state = self._sim_with_activity()
        rec = FlightRecorder(sim, stride=0.1, max_samples=128)
        ts = rec.probe("x", lambda: state["x"])
        rec.start()
        sim.run(until=1.0)
        # baseline sample at t=0 plus ~10 stride ticks
        assert 8 <= len(ts) <= 12
        assert ts.values == sorted(ts.values)  # monotone counter sampled

    def test_stops_with_sim(self):
        # The recurring tick must not keep a drained simulator alive.
        sim, _ = self._sim_with_activity(until=0.5)
        rec = FlightRecorder(sim, stride=0.1)
        rec.probe("x", lambda: 0.0)
        rec.start()
        sim.run()  # no horizon: returns only when events drain
        assert sim.now < 10.0

    def test_watchers_are_idempotent(self):
        sim = Simulator()
        rec = FlightRecorder(sim)

        class FakeFlow:
            flow_id = 7
            cwnd = 2.0
            srtt = None

            def pacing_rate_bps(self):
                return 0.0

        f = FakeFlow()
        rec.watch_flow(f)
        rec.watch_flow(f)  # second registration is a no-op
        assert sorted(rec.series) == [
            "flow.7.cwnd", "flow.7.rate_mbps", "flow.7.srtt"
        ]

    def test_duplicate_probe_rejected(self):
        rec = FlightRecorder(Simulator())
        rec.probe("x", lambda: 0.0)
        with pytest.raises(ValueError):
            rec.probe("x", lambda: 1.0)

    def test_rejects_bad_stride(self):
        with pytest.raises(ValueError):
            FlightRecorder(Simulator(), stride=0.0)

    def test_as_dict_sorted_and_complete(self):
        rec = FlightRecorder(Simulator(), stride=0.5, max_samples=32)
        rec.probe("b", lambda: 1.0)
        rec.probe("a", lambda: 2.0)
        rec.sample()
        d = rec.as_dict()
        assert list(d["series"]) == ["a", "b"]
        assert d["stride"] == 0.5
        assert d["raster"] is None
        assert d["flows"] == []


class TestTelemetryConfig:
    """``REPRO_TELEMETRY_OUT`` is the one telemetry knob; stride and
    retention are the module defaults."""

    def test_disabled_by_default(self, monkeypatch):
        monkeypatch.delenv("REPRO_TELEMETRY_OUT", raising=False)
        obs = observe_run(Simulator())
        assert obs.recorder is None
        assert obs.flight.run_dir is None

    def test_out_dir_arms(self, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_TELEMETRY_OUT", str(tmp_path / "run"))
        obs = observe_run(Simulator())
        assert obs.flight.run_dir == tmp_path / "run"
        assert obs.recorder.stride == DEFAULT_STRIDE
        assert obs.recorder.max_samples == DEFAULT_MAX_SAMPLES


class TestFlowSummary:
    def test_summary_row_fields(self):
        class Stats:
            packets_sent = 100
            retransmissions = 3
            timeouts = 1
            completion_time = None

        class Fake:
            flow_id = 5
            variant = "newreno"
            packet_size = 1000
            highest_acked = 90
            stats = Stats()

        row = flow_summary(Fake(), duration=10.0)
        assert row["flow_id"] == 5
        assert row["packets_sent"] == 100
        assert row["acked"] == 90
        # 90 pkts * 1000 B * 8 / 10 s = 72 kbps = 0.072 Mbps
        assert row["goodput_mbps"] == pytest.approx(0.072)

    def test_no_duration_no_completion_gives_none(self):
        class Stats:
            packets_sent = 0
            retransmissions = 0
            timeouts = 0
            completion_time = None

        class Fake:
            flow_id = 1
            variant = "x"
            packet_size = 1000
            highest_acked = 0
            stats = Stats()

        row = flow_summary(Fake())
        assert row["goodput_mbps"] is None
