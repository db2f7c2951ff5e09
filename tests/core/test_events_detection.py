"""Tests for loss-event clustering and the Eq. (1)/(2) detection model."""

import numpy as np
import pytest

from repro.core import (
    DetectionModel,
    cluster_loss_events,
    detection_ratio,
    distinct_flows_per_event,
    empirical_flows_per_event,
    event_sizes,
    event_spans,
    l_rate_based,
    l_window_based,
    predicted_throughput_ratio,
)


class TestClusterLossEvents:
    def test_one_event_within_rtt(self):
        t = np.array([0.0, 0.01, 0.04])
        ev = cluster_loss_events(t, rtt=0.05)
        assert len(ev) == 1
        assert ev[0].count == 3

    def test_event_window_anchored_at_start(self):
        # Losses at 0, 0.04, 0.08: the third is >0.05 after the START of
        # the event (t=0), so it opens a new event even though it is within
        # 0.05 of the previous loss.
        t = np.array([0.0, 0.04, 0.08])
        ev = cluster_loss_events(t, rtt=0.05)
        assert [e.count for e in ev] == [2, 1]

    def test_flow_ids_collected_unique(self):
        t = np.array([0.0, 0.001, 0.002, 1.0])
        fids = np.array([3, 1, 3, 9])
        ev = cluster_loss_events(t, rtt=0.1, flow_ids=fids)
        np.testing.assert_array_equal(ev[0].flow_ids, [1, 3])
        assert ev[0].n_flows_hit == 2
        np.testing.assert_array_equal(ev[1].flow_ids, [9])

    def test_empty(self):
        assert cluster_loss_events(np.array([]), rtt=0.1) == []

    def test_validation(self):
        with pytest.raises(ValueError):
            cluster_loss_events(np.array([1.0]), rtt=0.0)
        with pytest.raises(ValueError):
            cluster_loss_events(np.array([2.0, 1.0]), rtt=1.0)
        with pytest.raises(ValueError):
            cluster_loss_events(np.array([1.0]), rtt=1.0, flow_ids=np.array([1, 2]))

    def test_sizes_and_mean(self):
        t = np.array([0.0, 0.01, 1.0])
        ev = cluster_loss_events(t, rtt=0.1)
        np.testing.assert_array_equal(event_sizes(ev), [2, 1])
        assert len(event_sizes([])) == 0


class TestSpanKernels:
    """The index-level primitives behind the vectorized Eq. 1-2 path."""

    def _bursty_trace(self, n=5000, seed=0):
        rng = np.random.default_rng(seed)
        centers = np.sort(rng.uniform(0.0, 50.0, n // 10))
        t = np.sort((centers[:, None] + rng.exponential(1e-4, (len(centers), 10))).ravel())
        fids = rng.integers(0, 64, size=len(t), dtype=np.int64)
        return t, fids

    def test_spans_agree_with_cluster_loss_events(self):
        t, fids = self._bursty_trace()
        spans = event_spans(t, rtt=0.05)
        events = cluster_loss_events(t, rtt=0.05, flow_ids=fids)
        assert len(spans) - 1 == len(events)
        np.testing.assert_array_equal(np.diff(spans), [e.count for e in events])
        np.testing.assert_array_equal(
            distinct_flows_per_event(spans, fids), [e.n_flows_hit for e in events]
        )

    def test_dense_and_sparse_paths_agree(self):
        # Spreading the same ids over a ~1e12 range pushes the
        # (events x flow-range) grid past the dense-path threshold, so
        # this pits the sort-based fallback against the dense scatter.
        t, fids = self._bursty_trace()
        spans = event_spans(t, rtt=0.05)
        sparse_ids = fids * 20_000_000_000 - 7
        np.testing.assert_array_equal(
            distinct_flows_per_event(spans, sparse_ids),
            distinct_flows_per_event(spans, fids),
        )

    def test_record_mask_restricts_counts(self):
        t = np.array([0.0, 0.001, 0.002, 1.0])
        fids = np.array([3, 1, 3, 9])
        spans = event_spans(t, rtt=0.1)
        np.testing.assert_array_equal(distinct_flows_per_event(spans, fids), [2, 1])
        mask = np.array([True, False, True, False])
        np.testing.assert_array_equal(
            distinct_flows_per_event(spans, fids, record_mask=mask), [1, 0]
        )

    def test_empty_and_validation(self):
        np.testing.assert_array_equal(event_spans(np.array([]), rtt=0.1), [0])
        with pytest.raises(ValueError):
            event_spans(np.array([1.0]), rtt=0.0)
        with pytest.raises(ValueError):
            event_spans(np.array([2.0, 1.0]), rtt=1.0)


class TestEquations:
    def test_eq1_min(self):
        assert l_rate_based(10, 16) == 10
        assert l_rate_based(30, 16) == 16

    def test_eq2_max(self):
        assert l_window_based(30, k=10) == 3.0
        assert l_window_based(5, k=10) == 1.0
        assert l_window_based(0, k=10) == 0.0

    def test_rate_based_detects_far_more(self):
        # Paper's qualitative claim: L_rate >> L_win in the bursty regime.
        m, n, k = 20, 32, 40
        assert l_rate_based(m, n) / l_window_based(m, k) == 20.0

    def test_detection_ratio(self):
        assert detection_ratio(20, 32, 40) == pytest.approx(20.0)
        assert np.isnan(detection_ratio(0, 32, 40))

    def test_validation(self):
        with pytest.raises(ValueError):
            l_rate_based(-1, 5)
        with pytest.raises(ValueError):
            l_window_based(5, k=0)


class TestDetectionModel:
    def test_expected_values_over_events(self):
        model = DetectionModel(n=16, k=10.0)
        sizes = np.array([5, 20, 40])
        # rate: min(m,16) -> 5,16,16 => 37/3
        assert model.expected_rate_detections(sizes) == pytest.approx(37 / 3)
        # window: max(m/10,1) -> 1,2,4 => 7/3
        assert model.expected_window_detections(sizes) == pytest.approx(7 / 3)
        assert model.expected_ratio(sizes) == pytest.approx(37 / 7)

    def test_empty_events(self):
        model = DetectionModel(n=4, k=2.0)
        assert np.isnan(model.expected_rate_detections(np.array([])))

    def test_empirical_flows_per_event(self):
        t = np.array([0.0, 0.001, 1.0])
        ev = cluster_loss_events(t, rtt=0.1, flow_ids=np.array([1, 2, 1]))
        assert empirical_flows_per_event(ev) == pytest.approx(1.5)
        assert np.isnan(empirical_flows_per_event([]))


class TestThroughputPrediction:
    def test_sqrt_law(self):
        assert predicted_throughput_ratio(4.0) == pytest.approx(2.0)
        assert predicted_throughput_ratio(1.0) == pytest.approx(1.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            predicted_throughput_ratio(0.0)
