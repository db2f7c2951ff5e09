"""The paper's causal chain, measured end to end in one run.

bursty drops  ->  rate-based flows detect more events (Eqs. 1/2)
              ->  they halve more often
              ->  they get less throughput (Figure 7),
with the magnitude linked by the 1/sqrt(p) throughput law.

This test runs ONE mixed competition and extracts every link of that
chain from its traces.
"""

import numpy as np
import pytest

from repro.core import (
    burstiness_summary,
    cluster_loss_events,
    predicted_throughput_ratio,
)
from repro.experiments import FAST
from repro.experiments.fig7_competition import fig7_spec
from repro.experiments.scenario import run_scenario

RTT = 0.05
DURATION = 20.0


SEEDS = (1, 2, 3, 4)


def _one_run(seed):
    """The Figure 7 competition at FAST size (50 Mbps, 8 flows per class,
    20 s) over a half-BDP buffer, throughput in 1 s bins."""
    spec = fig7_spec(FAST, RTT, 0.5, 1.0)
    assert (spec.capacity_bps, len(spec.classes[0].rtts), spec.duration) == (50e6, 8, DURATION)
    return run_scenario(spec, seed, "causal-chain")


@pytest.fixture(scope="module")
def mixed_runs():
    """Several seeds of the mixed competition: per-seed detection counts
    are stable but 20-second throughput shares are noisy with 8 flows per
    class, so the throughput links are checked on the seed-mean."""
    return [_one_run(seed) for seed in SEEDS]


def _hit_means(run):
    events = cluster_loss_events(run.drop_times, RTT, run.drop_fids)
    win = np.mean([np.sum((e.flow_ids >= 100) & (e.flow_ids < 200))
                   for e in events])
    rate = np.mean([np.sum(e.flow_ids >= 200) for e in events])
    return win, rate


class TestCausalChain:
    def test_link1_drops_are_bursty(self, mixed_runs):
        for run in mixed_runs:
            s = burstiness_summary(run.drop_times, RTT)
            assert s.is_burstier_than_poisson()
            assert s.mean_burst_size > 2.0

    def test_link2_rate_based_flows_hit_more_often_every_seed(self, mixed_runs):
        for run in mixed_runs:
            win, rate = _hit_means(run)
            assert rate > win

    def test_link3_window_class_gets_more_throughput_on_average(self, mixed_runs):
        win_mbps = np.mean([run.mean_mbps[0] for run in mixed_runs])
        rate_mbps = np.mean([run.mean_mbps[1] for run in mixed_runs])
        assert win_mbps > rate_mbps

    def test_link4_sqrt_law_gives_the_right_order_of_magnitude(self, mixed_runs):
        """The 1/sqrt(p) prediction from the measured detection ratio
        points the same way as the measured throughput ratio and lands
        within a factor of two of it — the paper's model is a mechanism
        sketch, not a calibrated estimator."""
        hit_ratios = []
        for run in mixed_runs:
            win, rate = _hit_means(run)
            hit_ratios.append(rate / win)
        predicted = predicted_throughput_ratio(float(np.mean(hit_ratios)))
        win_mbps = np.mean([run.mean_mbps[0] for run in mixed_runs])
        rate_mbps = np.mean([run.mean_mbps[1] for run in mixed_runs])
        observed = win_mbps / rate_mbps
        assert predicted > 1.0 and observed > 1.0
        assert 0.5 < predicted / observed < 2.0
