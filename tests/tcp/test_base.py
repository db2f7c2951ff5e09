"""Unit tests for the shared TCP sender machinery."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim import Simulator
from repro.sim.node import Host
from repro.tcp import NewRenoSender
from tests.tcp.conftest import Harness


def make_sender(**kw):
    sim = Simulator()
    host = Host(sim)
    # Sender without a wired network: used for pure state-machine checks.
    return NewRenoSender(sim, host, 1, dst=999, **kw)


class TestConstruction:
    def test_invalid_parameters_rejected(self):
        with pytest.raises(ValueError):
            make_sender(total_packets=0)
        with pytest.raises(ValueError):
            make_sender(packet_size=0)
        with pytest.raises(ValueError):
            make_sender(initial_cwnd=0.5)

    def test_attaches_to_host(self):
        snd = make_sender()
        assert snd.host.agents[1] is snd

    def test_initial_state(self):
        snd = make_sender(initial_cwnd=2.0)
        assert snd.cwnd == 2.0
        assert snd.inflight == 0
        assert not snd.started and not snd.finished


#: RFC 6298 §2: the SRTT and RTTVAR gains, the variance multiplier, and
#: the clock granularity G the sender assumes.
ALPHA, BETA, K, G = 1 / 8, 1 / 4, 4, 0.01


def rfc6298(samples, min_rto, max_rto):
    """The RFC 6298 §2 recurrence, spelled from the RFC: ``(SRTT, RTTVAR,
    RTO)`` after each measurement ``R``."""
    srtt = rttvar = None
    states = []
    for r in samples:
        if srtt is None:  # (2.2) the first measurement
            srtt, rttvar = r, r / 2
        else:  # (2.3) RTTVAR first, from the SRTT before this sample
            rttvar = (1 - BETA) * rttvar + BETA * abs(srtt - r)
            srtt = (1 - ALPHA) * srtt + ALPHA * r
        rto = srtt + max(G, K * rttvar)
        states.append((srtt, rttvar, min(max_rto, max(min_rto, rto))))  # (2.4), (2.5)
    return states


class TestRttEstimation:
    @settings(max_examples=200)
    @given(samples=st.lists(st.floats(1e-4, 30.0), min_size=1, max_size=40),
           min_rto=st.floats(0.0, 1.5), span=st.floats(0.0, 60.0))
    def test_rtt_sample_follows_rfc6298(self, samples, min_rto, span):
        snd = make_sender(min_rto=min_rto, max_rto=min_rto + span)
        for r, (srtt, rttvar, rto) in zip(samples, rfc6298(samples, min_rto, min_rto + span)):
            snd._rtt_sample(r)
            assert snd.srtt == pytest.approx(srtt, rel=1e-12)
            assert snd.rttvar == pytest.approx(rttvar, rel=1e-12, abs=1e-15)
            assert snd.rto == pytest.approx(rto, rel=1e-12)

    def test_first_sample_initializes_srtt(self):
        snd = make_sender()
        snd._rtt_sample(0.1)
        assert snd.srtt == pytest.approx(0.1)
        assert snd.rttvar == pytest.approx(0.05)

    def test_ewma_update(self):
        snd = make_sender()
        snd._rtt_sample(0.1)
        snd._rtt_sample(0.2)
        assert snd.srtt == pytest.approx(0.875 * 0.1 + 0.125 * 0.2)

    def test_rto_floor_and_ceiling(self):
        snd = make_sender(min_rto=0.2)
        snd._rtt_sample(0.001)
        assert snd.rto >= 0.2
        snd2 = make_sender(max_rto=5.0)
        snd2._rtt_sample(100.0)
        assert snd2.rto <= 5.0

    def test_rtt_estimate_fallbacks(self):
        snd = make_sender()
        assert snd.rtt_estimate() == snd.rto  # no samples at all
        snd._rtt_sample(0.05)
        assert snd.rtt_estimate() == snd.srtt

    def test_samples_are_summarized_not_kept(self):
        snd = make_sender()
        for r in (0.1, 0.3, 0.2):
            snd._rtt_sample(r)
        stats = snd.stats
        assert (stats.rtt_count, stats.rtt_max) == (3, 0.3)
        assert stats.mean_rtt() == pytest.approx(0.2)
        assert not hasattr(stats, "__dict__")  # slots only: nothing grows per sample


class TestEndToEnd:
    def test_clean_transfer_completes(self, harness):
        snd, sink, done = harness.add_tcp_flow(NewRenoSender, total_packets=100)
        snd.start()
        harness.sim.run(until=30.0)
        assert done, "transfer did not complete"
        assert snd.finished
        assert sink.stats.packets_received >= 100
        assert snd.stats.timeouts == 0

    def test_no_loss_on_big_buffer(self):
        h = Harness(buffer_pkts=1000)
        snd, sink, done = h.add_tcp_flow(NewRenoSender, total_packets=500)
        snd.start()
        h.sim.run(until=30.0)
        assert done
        assert len(h.db.drop_trace) == 0
        assert snd.stats.retransmissions == 0

    def test_transfer_time_close_to_ideal(self):
        # 500 x 1000B = 4 Mbit over 10 Mbps = 0.4 s ideal + slow start.
        h = Harness(buffer_pkts=1000)
        snd, _, done = h.add_tcp_flow(NewRenoSender, total_packets=500)
        snd.start()
        h.sim.run(until=30.0)
        assert done[0] < 1.5

    def test_inflight_never_negative_nor_exceeds_window(self, harness):
        snd, _, _ = harness.add_tcp_flow(NewRenoSender, total_packets=400)
        orig_emit = snd._emit
        violations = []

        def checked_emit(seq, retransmission):
            orig_emit(seq, retransmission)
            if snd.inflight < 0:
                violations.append(snd.inflight)

        snd._emit = checked_emit
        snd.start()
        harness.sim.run(until=60.0)
        assert not violations
        assert snd.finished

    def test_completion_callback_fires_once(self, harness):
        snd, _, done = harness.add_tcp_flow(NewRenoSender, total_packets=50)
        snd.start()
        harness.sim.run(until=30.0)
        assert len(done) == 1

    def test_srtt_tracks_path_rtt(self, harness):
        snd, _, _ = harness.add_tcp_flow(NewRenoSender, total_packets=300)
        snd.start()
        harness.sim.run(until=30.0)
        # Propagation RTT 50ms; queueing adds up to buffer/rate = 20ms.
        assert 0.045 <= snd.srtt <= 0.15

    def test_unbounded_flow_keeps_sending(self, harness):
        snd, sink, _ = harness.add_tcp_flow(NewRenoSender, total_packets=None)
        snd.start()
        harness.sim.run(until=5.0)
        assert not snd.finished
        assert sink.stats.packets_received > 100

    def test_karn_no_samples_from_retransmissions(self):
        # Tiny buffer forces heavy loss; every sample must stay plausible
        # (a retransmission-polluted sample would be >> path RTT + RTO).
        h = Harness(buffer_pkts=3)
        snd, _, _ = h.add_tcp_flow(NewRenoSender, total_packets=300)
        snd.start()
        h.sim.run(until=120.0)
        assert snd.stats.retransmissions > 0
        assert snd.stats.rtt_count > 0 and snd.stats.rtt_max < 0.5

    def test_two_flows_share_bottleneck(self):
        h = Harness(buffer_pkts=60)
        s1, k1, _ = h.add_tcp_flow(NewRenoSender, group=0)
        s2, k2, _ = h.add_tcp_flow(NewRenoSender, group=1)
        s1.start(0.0)
        s2.start(0.01)
        h.sim.run(until=20.0)
        m1 = h.throughput.mean_mbps(0, 20.0)
        m2 = h.throughput.mean_mbps(1, 20.0)
        # Both get a substantial share; total close to capacity.
        assert m1 + m2 > 8.0
        assert min(m1, m2) > 2.0
