"""Tests for traces and RNG streams."""

import numpy as np
import pytest

from repro.sim.packet import Packet
from repro.sim.rng import RngStreams, stable_hash
from repro.sim.trace import ArrivalTrace, DropTrace, FlowStats, ThroughputTrace


def mkpkt(flow=0, seq=0, size=1000):
    return Packet(flow_id=flow, seq=seq, size=size)


class TestDropTrace:
    def test_records_and_array_views(self):
        tr = DropTrace()
        tr.record(mkpkt(flow=1, seq=10), 0.5)
        tr.record(mkpkt(flow=2, seq=20, size=400), 0.75)
        assert len(tr) == 2
        np.testing.assert_allclose(tr.times, [0.5, 0.75])
        np.testing.assert_array_equal(tr.flow_ids, [1, 2])
        np.testing.assert_array_equal(tr.seqs, [10, 20])
        np.testing.assert_array_equal(tr.sizes, [1000, 400])

    def test_marked_excluded_from_drop_times(self):
        tr = DropTrace()
        tr.record(mkpkt(), 1.0, marked=False)
        tr.record(mkpkt(), 2.0, marked=True)
        tr.record(mkpkt(), 3.0, marked=False)
        np.testing.assert_allclose(tr.drop_times(), [1.0, 3.0])

    def test_flows_hit(self):
        tr = DropTrace()
        for f in [3, 1, 3, 2]:
            tr.record(mkpkt(flow=f), 0.0)
        np.testing.assert_array_equal(np.unique(tr.flow_ids), [1, 2, 3])

    def test_empty_trace(self):
        tr = DropTrace()
        assert len(tr) == 0
        assert tr.times.shape == (0,)


class TestArrivalTrace:
    def test_records(self):
        tr = ArrivalTrace()
        tr.record(mkpkt(flow=7), 0.1)
        assert len(tr) == 1
        assert tr.flow_ids[0] == 7


class TestThroughputTrace:
    def test_bins_bytes_into_mbps(self):
        tr = ThroughputTrace(bin_width=1.0)
        tr.assign(1, group=0)
        tr.record(1, 125_000, now=0.5)  # 1 Mbit in bin 0
        tr.record(1, 250_000, now=1.5)  # 2 Mbit in bin 1
        t, mbps = tr.series(0)
        np.testing.assert_allclose(t, [0.5, 1.5])
        np.testing.assert_allclose(mbps, [1.0, 2.0])

    def test_unassigned_flows_ignored(self):
        tr = ThroughputTrace()
        tr.record(42, 1000, now=0.0)
        assert tr.groups() == []

    def test_groups_are_independent(self):
        tr = ThroughputTrace(bin_width=1.0)
        tr.assign(1, 0)
        tr.assign(2, 1)
        tr.record(1, 1000, 0.1)
        tr.record(2, 3000, 0.1)
        assert tr.total_bytes(0) == 1000
        assert tr.total_bytes(1) == 3000

    def test_mean_mbps(self):
        tr = ThroughputTrace(bin_width=1.0)
        tr.assign(1, 0)
        tr.record(1, 1_250_000, now=3.0)
        assert tr.mean_mbps(0, duration=10.0) == pytest.approx(1.0)

    def test_series_padded_to_until(self):
        tr = ThroughputTrace(bin_width=1.0)
        tr.assign(1, 0)
        tr.record(1, 1000, now=0.5)
        t, mbps = tr.series(0, until=5.0)
        assert len(t) == 6
        assert mbps[3] == 0.0

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            ThroughputTrace(bin_width=0.0)
        tr = ThroughputTrace()
        tr.assign(1, 0)
        with pytest.raises(ValueError):
            tr.mean_mbps(0, duration=0.0)


class TestFlowStats:
    def test_completion_time(self):
        st = FlowStats(1)
        assert st.completion_time is None
        st.start_time = 1.0
        st.finish_time = 5.5
        assert st.completion_time == pytest.approx(4.5)

    def test_mean_rtt(self):
        st = FlowStats(1)
        assert np.isnan(st.mean_rtt())
        st.rtt_count, st.rtt_sum, st.rtt_max = 2, 0.1 + 0.2, 0.2
        assert st.mean_rtt() == pytest.approx(0.15)


class TestRngStreams:
    def test_same_seed_same_stream(self):
        a = RngStreams(7).stream("x").random(5)
        b = RngStreams(7).stream("x").random(5)
        np.testing.assert_array_equal(a, b)

    def test_different_names_differ(self):
        s = RngStreams(7)
        a = s.stream("x").random(5)
        b = s.stream("y").random(5)
        assert not np.array_equal(a, b)

    def test_different_seeds_differ(self):
        a = RngStreams(1).stream("x").random(5)
        b = RngStreams(2).stream("x").random(5)
        assert not np.array_equal(a, b)

    def test_stream_is_cached(self):
        s = RngStreams(0)
        assert s.stream("x") is s.stream("x")

    def test_spawn_derives_independent_family(self):
        s = RngStreams(3)
        c1 = s.spawn("rep0")
        c2 = s.spawn("rep1")
        assert c1.seed != c2.seed
        # deterministic
        assert RngStreams(3).spawn("rep0").seed == c1.seed

    def test_stable_hash_is_stable(self):
        assert stable_hash("bottleneck") == stable_hash("bottleneck")
        assert stable_hash("a") != stable_hash("b")

    def test_seed_type_checked(self):
        with pytest.raises(TypeError):
            RngStreams("not-an-int")  # type: ignore[arg-type]
