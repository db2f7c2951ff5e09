"""Tests for Figure 8's parallel transfer: the payload split over N
finite flows (:func:`repro.experiments.fig8_parallel.fig8_spec`) and the
lower bound that normalizes its latency."""

from dataclasses import replace

import numpy as np
import pytest

from repro.apps import lower_bound, summarize_latencies
from repro.experiments import FAST, run_fig8_cell
from repro.experiments.fig8_parallel import fig8_spec
from repro.experiments.scenario import run_scenario


def _scale(total):
    return replace(FAST, fig8_capacity_bps=20e6, fig8_total_bytes=total)


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
        run = run_scenario(fig8_spec(3, 0.02, _scale(10_000)), 1, "t")
        # ceil(3333.3 / 1000) whole packets per flow.
        assert [snd.total_packets for snd, _ in run.flows] == [4, 4, 4]

    def test_validation(self):
        with pytest.raises(ValueError):
            fig8_spec(2, 0.02, _scale(0))
        with pytest.raises(ValueError):
            fig8_spec(0, 0.02, _scale(10_000))


class TestTransfer:
    def _run(self, n_flows, total=2 * 2**20, buffer_pkts=200, seed=1):
        spec = replace(fig8_spec(n_flows, 0.02, _scale(total)), buffer_pkts=buffer_pkts)
        run = run_scenario(spec, seed, "t")
        finish = [snd.stats.finish_time for snd, _ in run.flows]
        assert None not in finish
        return run, np.array(finish) / lower_bound(total, 20e6)

    def test_completes_and_normalized_above_one(self):
        _, finish = self._run(4)
        assert finish.max() >= 1.0
        spread = finish.max() - finish.min()
        assert finish.max() >= spread >= 0.0

    def test_makespan_is_slowest_flow(self):
        """A Figure 8 cell's latency is its slowest flow's finish time."""
        sc = _scale(2**19)
        run = run_scenario(fig8_spec(4, 0.02, sc), 7, "t")
        finish = [snd.stats.finish_time for snd, _ in run.flows]
        bound = lower_bound(sc.fig8_total_bytes, sc.fig8_capacity_bps)
        assert run_fig8_cell(4, 0.02, seed=7, scale=sc) == max(finish) / bound

    def test_all_bytes_delivered(self):
        run, _ = self._run(3, total=1_000_000)
        per_flow = run.flows[0][0].total_packets
        delivered = sum(sink.stats.bytes_received for _, sink in run.flows)
        assert delivered >= 3 * per_flow * 1000

    def test_unfinished_is_inf(self):
        # 10 kB at 20 Mbps: the run gives up at 60x the 4 ms bound, before
        # the first ACK of a 500 ms path can return.
        assert run_fig8_cell(2, 0.5, seed=1, scale=_scale(10_000)) == float("inf")

    def test_single_flow(self):
        run, finish = self._run(1)
        assert len(run.flows) == len(finish) == 1

    def test_small_buffer_still_completes_with_recovery(self):
        run, finish = self._run(8, buffer_pkts=6)
        assert sum(snd.stats.retransmissions for snd, _ in run.flows) > 0  # losses forced recovery
        assert finish.max() > 1.1  # and cost real time
