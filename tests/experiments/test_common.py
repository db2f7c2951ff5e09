"""Tests for experiment scaffolding (scales, noise fleet)."""

import numpy as np
import pytest

from repro.experiments import FAST, PAPER, current_scale
from repro.experiments.common import add_noise_fleet, random_rtts
from repro.sim import DumbbellConfig, Simulator, build_dumbbell
from repro.sim.rng import RngStreams


class TestScales:
    def test_fast_is_default(self, monkeypatch):
        monkeypatch.delenv("REPRO_SCALE", raising=False)
        assert current_scale() is FAST

    def test_env_selects_paper(self, monkeypatch):
        monkeypatch.setenv("REPRO_SCALE", "paper")
        assert current_scale() is PAPER

    def test_override_wins(self, monkeypatch):
        monkeypatch.setenv("REPRO_SCALE", "paper")
        assert current_scale(FAST) is FAST

    def test_unknown_scale_rejected(self, monkeypatch):
        monkeypatch.setenv("REPRO_SCALE", "galactic")
        with pytest.raises(ValueError):
            current_scale()

    def test_paper_scale_matches_paper_parameters(self):
        assert PAPER.capacity_bps == 100e6
        assert PAPER.n_tcp_flows == 16
        assert PAPER.n_noise_flows == 50
        assert PAPER.noise_load == pytest.approx(0.10)
        assert PAPER.fig7_flows_per_class == 16
        assert PAPER.fig7_duration == 40.0
        assert PAPER.fig8_total_bytes == 64 * 2**20
        assert PAPER.fig8_flow_counts == (2, 4, 8, 16, 32)
        assert PAPER.fig8_rtts == (0.002, 0.010, 0.050, 0.200)
        assert PAPER.campaign_probe_duration == 300.0

    def test_fast_preserves_shape(self):
        # Same RTT grid and flow-count ladder start; smaller absolutes.
        assert FAST.fig8_rtts == PAPER.fig8_rtts
        assert set(FAST.fig8_flow_counts) <= set(PAPER.fig8_flow_counts)
        assert FAST.capacity_bps < PAPER.capacity_bps


class TestRandomRtts:
    def test_range_and_determinism(self):
        r1 = random_rtts(100, RngStreams(5))
        r2 = random_rtts(100, RngStreams(5))
        np.testing.assert_array_equal(r1, r2)
        assert r1.min() >= 0.002 and r1.max() <= 0.200

    def test_validation(self):
        with pytest.raises(ValueError):
            random_rtts(0, RngStreams(0))


class TestNoiseFleet:
    def test_two_way_sources_and_load(self):
        sim = Simulator()
        db = build_dumbbell(sim, DumbbellConfig(bottleneck_rate_bps=10e6,
                                                buffer_pkts=1000))
        streams = RngStreams(3)
        sources = add_noise_fleet(sim, db, streams, n_flows=5, load_fraction=0.2)
        assert len(sources) == 10  # 5 per direction
        agg = sum(s.peak_rate_bps * s.mean_on / (s.mean_on + s.mean_off)
                  for s in sources[::2])
        assert agg == pytest.approx(2e6)  # 20% of 10 Mbps forward
        sim.run(until=20.0)
        # Both directions actually carried noise through the bottleneck.
        fwd_bytes = db.bottleneck_fwd.bytes_forwarded
        rev_bytes = db.bottleneck_rev.bytes_forwarded
        assert fwd_bytes > 0 and rev_bytes > 0
        measured = fwd_bytes * 8 / 20.0
        assert measured == pytest.approx(2e6, rel=0.4)

    def test_zero_flows_noop(self):
        sim = Simulator()
        db = build_dumbbell(sim)
        assert add_noise_fleet(sim, db, RngStreams(0), n_flows=0) == []
