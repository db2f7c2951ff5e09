"""Integration tests: every paper figure/table driver reproduces its shape.

These use a TINY scale (smaller than FAST) so the whole module runs in
well under a minute; the benchmarks exercise FAST/PAPER scales.
"""

import json
from dataclasses import replace

import numpy as np
import pytest

from repro.experiments import (
    Scale,
    analytic_table,
    run_eq12,
    run_fig2,
    run_fig3,
    run_fig4,
    run_fig7,
    run_fig8,
    run_fig8_cell,
    run_table1,
)
from repro.experiments.fig3_dummynet import CLOCK_TICK

TINY = Scale(
    name="fast",
    capacity_bps=10e6,
    n_tcp_flows=6,
    n_noise_flows=4,
    noise_load=0.10,
    measure_duration=8.0,
    fig7_capacity_bps=20e6,
    fig7_flows_per_class=4,
    fig7_duration=10.0,
    fig8_capacity_bps=10e6,
    fig8_total_bytes=2 * 2**20,
    fig8_flow_counts=(2, 4),
    fig8_rtts=(0.010, 0.100),
    fig8_repetitions=2,
    campaign_experiments=30,
    campaign_probe_duration=30.0,
)


class TestFig2:
    @pytest.fixture(scope="class")
    def result(self):
        return run_fig2(seed=3, scale=TINY)

    def test_heavy_sub_rtt_clustering(self, result):
        # Paper: > 95% within 0.01 RTT at an ideal simulated bottleneck.
        assert result.frac_001 > 0.7
        assert result.frac_1 > 0.9

    def test_burstier_than_poisson(self, result):
        assert result.comparison.rejects_poisson
        assert result.comparison.cv > 1.5

    def test_bottleneck_saturated(self, result):
        assert result.bottleneck_utilization > 0.7
        assert result.n_drops > 50

    def test_text_output(self, result):
        txt = result.to_text()
        assert "Figure 2" in txt and "mass < 0.01 RTT" in txt

    def test_buffer_fraction_validated(self):
        with pytest.raises(ValueError):
            run_fig2(scale=TINY, buffer_bdp_fraction=0.0)


class TestFig3:
    @pytest.fixture(scope="class")
    def result(self):
        return run_fig3(seed=3, scale=TINY)

    def test_clustering_present_but_clock_limited(self, result):
        assert result.frac_001 > 0.4
        assert result.frac_1 > 0.85

    def test_timestamps_quantized_to_1ms(self, result):
        # Every drop time, and so every interval, sits on the 1 ms clock.
        assert result.n_drops == len(result.drop_times) > 20
        ticks = result.drop_times / CLOCK_TICK
        np.testing.assert_allclose(ticks, np.round(ticks), rtol=0, atol=1e-9)

    def test_text_output(self, result):
        assert "Figure 3" in result.to_text()


class TestFig4:
    @pytest.fixture(scope="class")
    def result(self):
        return run_fig4(seed=2006, scale=TINY)

    def test_internet_composition(self, result):
        # Paper: ~40% within 0.01 RTT, ~60% within 1 RTT; looser bands at
        # tiny scale.
        assert 0.15 <= result.frac_001 <= 0.6
        assert 0.35 <= result.frac_1 <= 0.85

    def test_less_bursty_than_ns2(self, result):
        fig2 = run_fig2(seed=3, scale=TINY)
        assert result.frac_001 < fig2.frac_001

    def test_still_rejects_poisson(self, result):
        assert result.comparison.rejects_poisson

    def test_text_output(self, result):
        txt = result.to_text()
        assert "Figure 4" in txt and "validated" in txt


class TestFig7:
    @pytest.fixture(scope="class")
    def result(self):
        return run_fig7(seed=3, scale=TINY)

    def test_pacing_loses(self, result):
        assert result.mean_pacing_mbps < result.mean_newreno_mbps
        assert 0.0 < result.pacing_deficit < 0.95

    def test_series_shapes(self, result):
        assert len(result.times) == len(result.newreno_mbps) == len(result.pacing_mbps)
        assert result.newreno_mbps.sum() > 0
        assert result.pacing_mbps.sum() > 0

    def test_link_shared_not_starved(self, result):
        total = result.mean_newreno_mbps + result.mean_pacing_mbps
        assert total > 0.5 * result.capacity_bps / 1e6

    def test_text_output(self, result):
        assert "pacing deficit" in result.to_text()


class TestFig8:
    def test_latency_increases_with_rtt(self):
        lat_small = run_fig8_cell(4, 0.010, seed=11, scale=TINY)
        lat_large = run_fig8_cell(4, 0.100, seed=11, scale=TINY)
        assert lat_large > lat_small >= 1.0

    def test_finite_and_above_bound(self):
        lat = run_fig8_cell(2, 0.010, seed=12, scale=TINY)
        assert np.isfinite(lat)
        assert lat >= 1.0

    def test_result_is_independent_of_the_run_slicing(self, monkeypatch):
        """A cell's result is its slowest flow's finish time: coarse
        slices (``max(0.5, bound / 4)`` sim-s) and the 10 ms
        ``scenario.COMPLETION_POLL_S`` ones must return the identical float
        for every cell, and the 10 ms ones must stop within one slice of
        the last completion."""
        from repro.apps.latency import lower_bound
        from repro.experiments import scenario
        from repro.sim.engine import Simulator

        scale = replace(TINY, fig8_total_bytes=2**18)
        bound = lower_bound(scale.fig8_total_bytes, scale.fig8_capacity_bps)
        last_until = []
        run = Simulator.run

        def recording_run(sim, until=float("inf"), max_events=None):
            last_until[:] = [until]
            return run(sim, until, max_events)

        monkeypatch.setattr(Simulator, "run", recording_run)
        poll = scenario.COMPLETION_POLL_S
        assert poll < 0.5  # the coarse stepping below really is coarser
        for rtt in scale.fig8_rtts:
            for n in scale.fig8_flow_counts:
                fine = run_fig8_cell(n, rtt, seed=13, scale=scale)
                stopped_at = last_until[0]
                with monkeypatch.context() as coarse:
                    coarse.setattr(scenario, "COMPLETION_POLL_S", max(0.5, bound / 4.0))
                    assert run_fig8_cell(n, rtt, seed=13, scale=scale) == fine
                assert np.isfinite(fine)
                assert 0.0 <= stopped_at - fine * bound <= poll + 1e-9

    def test_every_cell_is_observed(self, tmp_path, monkeypatch):
        """Each repetition is a named run: its own metrics file, the
        conservation sweeps over its finite transfers, the fault plan's
        link flaps armed on its bottleneck."""
        monkeypatch.setenv("REPRO_CHECK_INVARIANTS", "1")
        monkeypatch.setenv("REPRO_FAULTS", "11")
        monkeypatch.setenv("REPRO_METRICS_OUT", str(tmp_path / "m.json"))
        scale = replace(TINY, fig8_total_bytes=2**18)
        result = run_fig8(seed=1, scale=scale, workers=1)
        assert not result.failures
        jobs = [f"m.fig8.n{n}.rtt{rtt * 1e3:g}ms.s{10_000 + rep * 100 + n}.json"
                for rtt in scale.fig8_rtts for n in scale.fig8_flow_counts
                for rep in range(scale.fig8_repetitions)]
        assert sorted(p.name for p in tmp_path.iterdir()) == sorted(jobs)
        for name in jobs:
            data = json.loads((tmp_path / name).read_text())
            assert data["gauges"]["invariants.checks_run"] > 0
            assert data["gauges"]["invariants.violations"] == 0
            assert data["faults"]["plan"]["seed"] == 11


class TestEq12:
    @pytest.fixture(scope="class")
    def result(self):
        return run_eq12(seed=3, scale=TINY)

    def test_rate_based_detects_more(self, result):
        assert result.measured_rate_hits > result.measured_window_hits
        assert result.measured_ratio > 1.2
        assert result.model_ratio > 1.0

    def test_events_exist(self, result):
        assert result.n_events > 5
        assert result.mean_event_size > 1.0

    def test_text_output(self, result):
        assert "L_rate/L_win" in result.to_text()

    def test_analytic_table(self):
        txt = analytic_table()
        assert "L_rate" in txt and "64" in txt


class TestShortFlows:
    def test_both_workloads_bursty(self):
        from repro.experiments import run_shortflows

        res = run_shortflows(seed=2, scale=TINY)
        assert res.longlived.n_losses > 50
        assert res.churn.n_losses > 50
        assert res.longlived.is_burstier_than_poisson()
        assert res.churn.is_burstier_than_poisson()
        assert res.churn_flows_completed > 0
        assert "churn" in res.to_text()


class TestTable1:
    def test_matches_paper_inventory(self):
        res = run_table1()
        assert res.n_sites == 26
        assert res.n_paths == 650
        assert res.rtt_min < 0.02 < 0.2 < res.rtt_max

    def test_text_lists_all_sites(self):
        txt = run_table1().to_text()
        assert txt.count("planetlab") >= 15
        assert "Table 1" in txt
