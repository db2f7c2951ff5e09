"""Tests for the parallel-transfer application model."""

import numpy as np
import pytest

from repro.apps import (
    ParallelTransfer,
    ParallelTransferConfig,
    lower_bound,
    summarize_latencies,
)
from repro.sim import DumbbellConfig, Simulator, build_dumbbell
from repro.tcp import PacedSender


class TestLowerBound:
    def test_paper_value_64mb_100mbps(self):
        # 64 MB * 8 / 100 Mbps = 5.37 s (the paper quotes 5.39 s).
        assert lower_bound(64 * 2**20, 100e6) == pytest.approx(5.369, abs=0.01)

    def test_rtt_term(self):
        assert lower_bound(1000, 1e6, rtt=0.1) == pytest.approx(0.008 + 0.1)

    def test_validation(self):
        with pytest.raises(ValueError):
            lower_bound(0, 1e6)
        with pytest.raises(ValueError):
            lower_bound(1000, 0)
        with pytest.raises(ValueError):
            lower_bound(1000, 1e6, rtt=-1)


class TestSummarize:
    def test_stats(self):
        st = summarize_latencies(4, 0.05, np.array([2.0, 3.0, 4.0]))
        assert st.mean == pytest.approx(3.0)
        assert st.min == 2.0 and st.max == 4.0
        assert not st.unpredictable

    def test_unpredictable_flag(self):
        st = summarize_latencies(4, 0.2, np.array([1.5, 20.0]))
        assert st.unpredictable

    def test_validation(self):
        with pytest.raises(ValueError):
            summarize_latencies(4, 0.05, np.array([]))
        with pytest.raises(ValueError):
            summarize_latencies(4, 0.05, np.array([0.5]))  # below bound


class TestConfig:
    def test_packets_per_flow_rounds_up(self):
        cfg = ParallelTransferConfig(total_bytes=10_000, n_flows=3, packet_size=1000)
        assert cfg.packets_per_flow == 4  # ceil(3333.3 / 1000)

    def test_validation(self):
        with pytest.raises(ValueError):
            ParallelTransferConfig(total_bytes=0)
        with pytest.raises(ValueError):
            ParallelTransferConfig(n_flows=0)


class TestTransfer:
    def _run(self, n_flows, total=2 * 2**20, sender_cls=None, buffer_pkts=200):
        sim = Simulator()
        db = build_dumbbell(
            sim, DumbbellConfig(bottleneck_rate_bps=20e6, buffer_pkts=buffer_pkts)
        )
        kwargs = {"sender_kwargs": {"base_rtt": 0.02}} if sender_cls is PacedSender else {}
        cfg = ParallelTransferConfig(
            total_bytes=total, n_flows=n_flows,
            sender_cls=sender_cls or ParallelTransferConfig().sender_cls, **kwargs,
        )
        pt = ParallelTransfer(sim, db, rtt=0.02, config=cfg)
        return pt.run(horizon=120.0)

    def test_completes_and_normalized_above_one(self):
        res = self._run(4)
        assert res.finished
        assert res.normalized_latency >= 1.0
        spread = max(res.completion_times) - min(res.completion_times)
        assert res.makespan >= spread >= 0.0

    def test_makespan_is_slowest_flow(self):
        res = self._run(4)
        assert res.makespan == pytest.approx(
            max(res.completion_times) - res.start_time
        )

    def test_all_bytes_delivered(self):
        sim = Simulator()
        db = build_dumbbell(
            sim, DumbbellConfig(bottleneck_rate_bps=20e6, buffer_pkts=200)
        )
        cfg = ParallelTransferConfig(total_bytes=1_000_000, n_flows=3)
        pt = ParallelTransfer(sim, db, rtt=0.02, config=cfg)
        res = pt.run(horizon=60.0)
        assert res.finished
        delivered = sum(s.stats.bytes_received for s in pt.sinks)
        assert delivered >= cfg.n_flows * cfg.packets_per_flow * cfg.packet_size

    def test_unfinished_is_inf(self):
        res = self._run(2, total=64 * 2**20)  # horizon too short on purpose?
        # 64MB over 20Mbps ideal = 26.8s; horizon 120 s: it should finish.
        # Use a genuinely impossible horizon instead:
        sim = Simulator()
        db = build_dumbbell(sim, DumbbellConfig(bottleneck_rate_bps=1e6, buffer_pkts=50))
        cfg = ParallelTransferConfig(total_bytes=64 * 2**20, n_flows=2)
        pt = ParallelTransfer(sim, db, rtt=0.02, config=cfg)
        res2 = pt.run(horizon=5.0)
        assert not res2.finished
        assert res2.makespan == float("inf")

    def test_single_flow(self):
        res = self._run(1)
        assert res.finished
        assert len(res.completion_times) == 1

    def test_paced_senders_supported(self):
        res = self._run(2, total=1_000_000, sender_cls=PacedSender)
        assert res.finished

    def test_small_buffer_still_completes_with_recovery(self):
        res = self._run(8, buffer_pkts=6)
        assert res.finished
        assert res.retransmissions > 0  # losses forced recovery
        assert res.normalized_latency > 1.1  # and cost real time
