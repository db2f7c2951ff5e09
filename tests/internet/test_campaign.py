"""Tests for the measurement campaign (Figure 4 dataset generation)."""

import numpy as np
import pytest

from repro.core import compare_to_poisson, fraction_within
from repro.internet import Campaign, ProbeConfig


def small_campaign(seed=2006, n=40, duration=30.0):
    camp = Campaign(seed=seed, probe_config=ProbeConfig(duration=duration))
    return camp, camp.run(n)


class TestCampaign:
    def test_runs_and_validates_most_experiments(self):
        _, res = small_campaign()
        assert len(res.experiments) == 40
        assert res.n_valid > 20
        assert res.n_valid + res.n_rejected == 40

    def test_deterministic_given_seed(self):
        _, a = small_campaign(seed=7, n=10, duration=10.0)
        _, b = small_campaign(seed=7, n=10, duration=10.0)
        np.testing.assert_array_equal(a.all_intervals_rtt(), b.all_intervals_rtt())

    def test_workers_do_not_change_results(self):
        """Campaign determinism across execution modes: every experiment
        re-derives its randomness from (seed, path, index), so a process
        pool cannot change the dataset."""
        camp_s = Campaign(seed=7, probe_config=ProbeConfig(duration=10.0))
        serial = camp_s.run(10, workers=1)
        camp_p = Campaign(seed=7, probe_config=ProbeConfig(duration=10.0))
        parallel = camp_p.run(10, workers=3)
        assert serial.fingerprint() == parallel.fingerprint()
        np.testing.assert_array_equal(
            serial.all_intervals_rtt(), parallel.all_intervals_rtt()
        )

    def test_different_seeds_differ(self):
        _, a = small_campaign(seed=7, n=10, duration=10.0)
        _, b = small_campaign(seed=8, n=10, duration=10.0)
        assert len(a.all_intervals_rtt()) != len(b.all_intervals_rtt()) or not np.array_equal(
            a.all_intervals_rtt(), b.all_intervals_rtt()
        )

    def test_experiment_pairs_share_weather(self):
        camp, res = small_campaign(n=10, duration=20.0)
        for e in res.experiments:
            if e.valid:
                # Validated pairs have similar loss rates by construction.
                mean = 0.5 * (e.small.loss_rate + e.large.loss_rate)
                assert abs(e.small.loss_rate - e.large.loss_rate) <= 0.5 * mean + 1e-12

    def test_paths_measured_are_real_paths(self):
        camp, res = small_campaign(n=10, duration=10.0)
        for src, dst in res.paths_measured():
            assert camp.matrix.path(src, dst) is not None

    def test_invalid_count(self):
        camp = Campaign(seed=1)
        with pytest.raises(ValueError):
            camp.run(0)

    def test_mean_loss_rate_sane(self):
        _, res = small_campaign()
        assert 0.0005 < res.mean_loss_rate() < 0.2

    def test_experiments_spread_over_campaign_clock(self):
        """The paper's campaign runs October-December 2006; experiments
        carry start times across that span and are normalized with the
        path's diurnal RTT at that moment."""
        camp, res = small_campaign()
        starts = [e.started_at for e in res.experiments]
        assert min(starts) >= 0.0
        assert max(starts) <= camp.CAMPAIGN_SPAN_SECONDS
        assert max(starts) - min(starts) > 0.3 * camp.CAMPAIGN_SPAN_SECONDS
        # The normalization RTT is the diurnal value, not necessarily base.
        for e in res.experiments[:5]:
            assert e.small.rtt == pytest.approx(e.path.rtt_at(e.started_at))
            assert e.small.rtt == e.large.rtt


class TestFigure4Shape:
    """The campaign's pooled intervals must reproduce the paper's Internet
    observations (§3.2.3)."""

    @pytest.fixture(scope="class")
    def intervals(self):
        _, res = small_campaign(n=80, duration=60.0)
        return res.all_intervals_rtt()

    def test_large_mass_below_001_rtt(self, intervals):
        # Paper: ~40% of losses within 0.01 RTT.  Allow a generous band.
        f = fraction_within(intervals, 0.01)
        assert 0.25 <= f <= 0.55

    def test_majority_below_1_rtt(self, intervals):
        # Paper: ~60% within 1 RTT.
        f = fraction_within(intervals, 1.0)
        assert 0.45 <= f <= 0.80

    def test_less_bursty_than_single_bottleneck_but_not_poisson(self, intervals):
        cmp = compare_to_poisson(intervals)
        assert cmp.rejects_poisson
        assert cmp.first_bin_excess > 2.0
