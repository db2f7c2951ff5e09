"""Tests for multi-timescale burstiness (IDC curves, Hurst estimators)."""

import numpy as np
import pytest

from repro.core import (
    hurst_aggregated_variance,
    hurst_rescaled_range,
    idc_curve,
    self_similarity_report,
)


def poisson_trace(rate=10.0, horizon=2000.0, seed=0):
    rng = np.random.default_rng(seed)
    n = rng.poisson(rate * horizon)
    return np.sort(rng.uniform(0, horizon, n))


def clustered_trace(n_clusters=400, per_cluster=25, horizon=2000.0, seed=1):
    rng = np.random.default_rng(seed)
    centers = np.sort(rng.uniform(0, horizon, n_clusters))
    pts = centers[:, None] + rng.exponential(0.002, (n_clusters, per_cluster))
    return np.sort(pts.ravel())


class TestIdcCurve:
    def test_poisson_flat_at_one(self):
        t = poisson_trace()
        windows = np.array([0.1, 0.4, 1.6, 6.4])
        idc = idc_curve(t, windows, 2000.0)
        assert np.all(np.abs(idc - 1.0) < 0.3)

    def test_clustered_grows(self):
        t = clustered_trace()
        windows = np.array([0.01, 0.1, 1.0, 10.0])
        idc = idc_curve(t, windows, 2000.0)
        assert idc[-1] > 5.0
        assert idc[-1] > idc[0]

    def test_nan_when_too_few_windows(self):
        t = poisson_trace(horizon=10.0)
        idc = idc_curve(t, np.array([5.0]), 10.0)
        assert np.isnan(idc[0])

    def test_validation(self):
        with pytest.raises(ValueError):
            idc_curve(np.array([1.0]), np.array([0.0]), 10.0)
        with pytest.raises(ValueError):
            idc_curve(np.array([1.0]), np.array([1.0]), 0.0)


class TestHurst:
    def test_poisson_near_half_aggvar(self):
        t = poisson_trace(rate=20.0)
        h = hurst_aggregated_variance(t, 2000.0, base_window=0.5)
        assert 0.35 < h < 0.65

    def test_poisson_near_half_rs(self):
        t = poisson_trace(rate=20.0)
        counts, _ = np.histogram(t, bins=4000, range=(0, 2000.0))
        h = hurst_rescaled_range(counts)
        assert 0.35 < h < 0.7

    def test_persistent_series_high_hurst_rs(self):
        # A smooth random walk's increments + trend-like persistence.
        rng = np.random.default_rng(2)
        steps = rng.normal(size=8192)
        persistent = np.convolve(steps, np.ones(64) / 64, mode="valid")
        h = hurst_rescaled_range(persistent)
        assert h > 0.75

    def test_short_series_nan(self):
        assert np.isnan(hurst_rescaled_range(np.ones(5)))
        assert np.isnan(hurst_aggregated_variance(np.array([1.0]), 1.0, 0.5))

    def test_validation(self):
        with pytest.raises(ValueError):
            hurst_aggregated_variance(np.array([1.0]), 100.0, 0.0)
        with pytest.raises(ValueError):
            hurst_aggregated_variance(np.array([1.0]), 100.0, 1.0, n_scales=1)
        with pytest.raises(ValueError):
            hurst_rescaled_range(np.ones(100), min_chunk=2)


class TestReport:
    def test_poisson_report_looks_poisson(self):
        t = poisson_trace(rate=20.0)
        rep = self_similarity_report(t, 2000.0, base_window=0.5)
        valid = rep.idc[~np.isnan(rep.idc)]
        assert len(valid) and np.all(np.abs(valid - 1.0) < 0.5)  # flat at 1
        assert rep.idc_growth == pytest.approx(1.0, abs=0.5)

    def test_clustered_report_flags_burstiness(self):
        t = clustered_trace()
        # Base window below the ~2ms cluster width: IDC must then GROW
        # across scales until the cluster timescale saturates it.
        rep = self_similarity_report(t, 2000.0, base_window=0.001, n_scales=8)
        valid = rep.idc[~np.isnan(rep.idc)]
        assert not np.all(np.abs(valid - 1.0) < 0.5)
        assert rep.idc_growth > 2.0

    def test_idc_saturates_above_cluster_timescale(self):
        t = clustered_trace()
        rep = self_similarity_report(t, 2000.0, base_window=0.05)
        valid = rep.idc[~np.isnan(rep.idc)]
        # All windows above the cluster width: high and flat.
        assert np.all(valid > 5.0)
        assert valid.max() / valid.min() < 1.5
