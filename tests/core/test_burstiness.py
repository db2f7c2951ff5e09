"""Tests for burstiness metrics."""

import numpy as np
import pytest

from repro.core import (
    burstiness_summary,
    cluster_bursts,
    coefficient_of_variation,
    fraction_within,
    index_of_dispersion,
)


class TestFractionWithin:
    def test_basic(self):
        x = np.array([0.005, 0.005, 0.5, 1.5])
        assert fraction_within(x, 0.01) == pytest.approx(0.5)
        assert fraction_within(x, 1.0) == pytest.approx(0.75)

    def test_strict_inequality(self):
        assert fraction_within(np.array([0.01]), 0.01) == 0.0

    def test_empty_is_nan(self):
        assert np.isnan(fraction_within(np.array([]), 0.01))

    def test_invalid_threshold(self):
        with pytest.raises(ValueError):
            fraction_within(np.array([1.0]), 0.0)


class TestCV:
    def test_constant_intervals_cv_zero(self):
        assert coefficient_of_variation(np.full(100, 0.5)) == pytest.approx(0.0)

    def test_exponential_cv_one(self):
        rng = np.random.default_rng(0)
        x = rng.exponential(1.0, 100_000)
        assert coefficient_of_variation(x) == pytest.approx(1.0, abs=0.02)

    def test_bursty_cv_large(self):
        # 99 tiny gaps then one huge gap, repeated: heavy clustering.
        x = np.tile(np.concatenate((np.full(99, 1e-4), [10.0])), 20)
        assert coefficient_of_variation(x) > 5.0

    def test_degenerate(self):
        assert np.isnan(coefficient_of_variation(np.array([1.0])))
        assert coefficient_of_variation(np.array([0.0, 0.0])) == np.inf


class TestIndexOfDispersion:
    def test_poisson_near_one(self):
        rng = np.random.default_rng(1)
        times = np.sort(rng.uniform(0, 1000, size=10_000))
        idc = index_of_dispersion(times, window=1.0, horizon=1000.0)
        assert idc == pytest.approx(1.0, abs=0.15)

    def test_clustered_much_greater(self):
        rng = np.random.default_rng(2)
        # 100 clusters of 100 losses each within 1ms.
        centers = np.sort(rng.uniform(0, 1000, size=100))
        times = np.sort((centers[:, None] + rng.uniform(0, 1e-3, (100, 100))).ravel())
        idc = index_of_dispersion(times, window=1.0, horizon=1000.0)
        assert idc > 20.0

    def test_validation(self):
        with pytest.raises(ValueError):
            index_of_dispersion(np.array([1.0]), window=0, horizon=10)
        assert np.isnan(index_of_dispersion(np.array([]), window=1, horizon=10))


class TestClusterBursts:
    def test_single_burst(self):
        t = np.array([0.0, 0.001, 0.002])
        bursts = cluster_bursts(t, gap=0.1)
        assert len(bursts) == 1
        assert bursts[0].count == 3
        assert bursts[0].duration == pytest.approx(0.002)

    def test_split_on_gap(self):
        t = np.array([0.0, 0.001, 1.0, 1.001])
        bursts = cluster_bursts(t, gap=0.1)
        assert [b.count for b in bursts] == [2, 2]
        assert bursts[1].start == pytest.approx(1.0)

    def test_gap_boundary_is_inclusive_split(self):
        t = np.array([0.0, 0.1])
        assert len(cluster_bursts(t, gap=0.1)) == 2
        assert len(cluster_bursts(t, gap=0.100001)) == 1

    def test_empty(self):
        assert cluster_bursts(np.array([]), gap=1.0) == []

    def test_validation(self):
        with pytest.raises(ValueError):
            cluster_bursts(np.array([1.0]), gap=0.0)
        with pytest.raises(ValueError):
            cluster_bursts(np.array([2.0, 1.0]), gap=1.0)


class TestSummary:
    def test_bursty_trace_summary(self):
        rtt = 0.1
        # 10 bursts of 50 back-to-back drops (0.1ms apart), bursts 5s apart.
        bursts = [5.0 * i + np.arange(50) * 1e-4 for i in range(10)]
        t = np.concatenate(bursts)
        s = burstiness_summary(t, rtt)
        assert s.n_losses == 500
        assert s.frac_within_001 > 0.9
        assert s.n_bursts == 10
        assert s.mean_burst_size == pytest.approx(50.0)
        assert s.max_burst_size == 50
        assert s.is_burstier_than_poisson()

    def test_poisson_trace_not_bursty(self):
        rng = np.random.default_rng(4)
        t = np.sort(rng.uniform(0, 1000, 2000))  # ~2 losses/sec, rtt=0.1
        s = burstiness_summary(t, rtt=0.1)
        assert s.frac_within_001 < 0.05
        assert 0.8 < s.cv < 1.2
        assert not s.is_burstier_than_poisson()
