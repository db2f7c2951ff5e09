"""Sender registry, BBR probe-cycle, and QUIC-pacing behaviour tests."""

import pytest

from repro.tcp.bbr import (
    BbrSender,
    PROBE_BW_GAINS,
    STARTUP_GAIN,
)
from repro.tcp.pacing import PacedSender, QuicPacedSender
from repro.tcp.registry import (
    create_sender,
    sender_names,
    sender_spec,
)
from repro.tcp.sink import TcpSink
from tests.tcp.conftest import Harness

#: (name, rate_based) for every variant the registry ships with.
EXPECTED_SENDERS = {
    "reno": False,
    "newreno": False,
    "paced": True,
    "quic-paced": True,
    "bbr": True,
    "bic": False,
    "sack": False,
    "fast": False,
}


def wire_flow(h, name, fid=1, total_packets=None, **kw):
    pair = h.db.add_pair(rtt=h.rtt)
    snd = create_sender(name, h.sim, pair.left, fid, pair.right.node_id,
                        rtt=h.rtt, total_packets=total_packets, **kw)
    sink = TcpSink(h.sim, pair.right, fid, pair.left.node_id)
    return snd, sink


class TestRegistry:
    def test_expected_names_registered(self):
        assert set(EXPECTED_SENDERS) <= set(sender_names())

    def test_rate_based_classification(self):
        """``rate_based`` is the paper's sub-RTT emission-pattern axis;
        the zoo grid keys its baseline/challenger split off it."""
        for name, rate_based in EXPECTED_SENDERS.items():
            assert sender_spec(name).rate_based is rate_based, name

    def test_unknown_name_raises_with_catalog(self):
        with pytest.raises(ValueError, match="newreno"):
            sender_spec("cubic")

    def test_specs_carry_descriptions(self):
        for name in sender_names():
            assert sender_spec(name).description

    @pytest.mark.parametrize("name", sorted(EXPECTED_SENDERS))
    def test_every_sender_completes_a_transfer(self, name):
        h = Harness(buffer_pkts=50)
        snd, _ = wire_flow(h, name, total_packets=150)
        snd.start()
        h.sim.run(until=60.0)
        assert snd.finished
        assert snd.stats.packets_sent >= 150

    @pytest.mark.parametrize("name", ["newreno", "paced", "quic-paced", "bbr"])
    def test_back_to_back_runs_are_byte_identical(self, name):
        """Seeded determinism: the same registry-built scenario twice in
        one interpreter yields identical event counts and drop traces."""

        def run_once():
            h = Harness(buffer_pkts=12)
            for fid in (1, 2, 3):
                snd, _ = wire_flow(h, name, fid=fid, total_packets=300)
                snd.start(0.01 * fid)
            h.sim.run(until=20.0)
            tr = h.db.drop_trace
            return (h.sim.events_processed, tr.times.tolist(),
                    tr.flow_ids.tolist(), tr.seqs.tolist())

        assert run_once() == run_once()

    def test_rtt_reaches_rate_based_factories(self):
        h = Harness()
        snd, _ = wire_flow(h, "paced")
        assert snd.base_rtt == pytest.approx(h.rtt)


class TestBbr:
    def test_startup_gain_and_initial_state(self):
        h = Harness()
        snd, _ = wire_flow(h, "bbr")
        assert isinstance(snd, BbrSender)
        assert snd.state == "STARTUP"
        assert snd.pacing_gain == pytest.approx(STARTUP_GAIN)

    def test_model_converges_on_uncontended_link(self):
        """btlbw finds the 10 Mbps link rate, rtprop finds the 50 ms
        floor, and the state machine settles in PROBE_BW."""
        h = Harness(buffer_pkts=100)
        snd, _ = wire_flow(h, "bbr")
        snd.start()
        h.sim.run(until=5.0)
        assert snd.state == "PROBE_BW"
        assert 8e6 <= snd.btlbw_bps() <= 14e6
        assert 0.045 <= snd.rtprop() <= 0.075
        assert snd.bdp_packets() > 0

    def test_probe_bw_cycles_through_gain_phases(self):
        """PROBE_BW walks the eight-phase 1.25/0.75/1x6 gain cycle, one
        rtprop per phase."""
        h = Harness(buffer_pkts=100)
        snd, _ = wire_flow(h, "bbr")
        snd.start()
        seen = set()

        def sample():
            if snd.state == "PROBE_BW":
                seen.add(snd.pacing_gain)

        h.sim.schedule_every(0.01, sample)
        h.sim.run(until=8.0)
        assert seen == set(PROBE_BW_GAINS)

    def test_loss_does_not_collapse_the_window(self):
        """BBR retransmits for reliability but never halves on loss: with
        a sub-BDP buffer forcing steady drops, cwnd stays at the model's
        ``cwnd_gain * BDP``, not a post-loss ssthresh."""
        h = Harness(buffer_pkts=32)  # BDP is ~62 packets
        snd, _ = wire_flow(h, "bbr")
        snd.start()
        h.sim.run(until=10.0)
        assert snd.stats.fast_retransmits > 0
        assert h.db.forward_queue.dropped_total > 0
        assert snd.state == "PROBE_BW"
        assert snd.cwnd >= snd.bdp_packets() > 0

    def test_probe_rtt_entered_when_floor_goes_stale(self):
        """No rtprop refresh for > 10 s drops the window to 4 packets."""
        h = Harness()
        snd, _ = wire_flow(h, "bbr")
        snd._rtprop = 0.05
        snd._rtprop_stamp = -20.0  # stale: last floor sample long ago
        snd._advance_state_machine()
        assert snd.state == "PROBE_RTT"
        snd._set_cwnd(1)
        assert snd.cwnd == 4.0

    def test_probe_rtt_exits_to_probe_bw_when_pipe_was_full(self):
        h = Harness()
        snd, _ = wire_flow(h, "bbr")
        snd._rtprop = 0.05
        snd._rtprop_stamp = -20.0
        snd._full_pipe = True
        snd._advance_state_machine()
        assert snd.state == "PROBE_RTT"
        h.sim.now = snd._probe_rtt_done  # dwell time served
        snd._advance_state_machine()
        assert snd.state == "PROBE_BW"
        assert snd.pacing_gain == PROBE_BW_GAINS[0]

    def test_delivery_rate_sampler_prunes_meta(self):
        """Checked after every ACK *during* the transfer (once the flow
        has finished ``_rate_meta`` is empty and any bound holds): acked
        sequences' metadata is reclaimed at once, so the dict never
        outgrows the window.  The 16-packet buffer adds retransmissions."""
        for buffer_pkts in (100, 16):
            h = Harness(buffer_pkts=buffer_pkts)
            snd, _ = wire_flow(h, "bbr", total_packets=2000)
            sizes = []
            on_new_ack = snd.on_new_ack

            def checking_on_new_ack(ack, newly_acked):
                on_new_ack(ack, newly_acked)
                assert all(seq >= snd.highest_acked for seq in snd._rate_meta)
                assert len(snd._rate_meta) <= snd.inflight + 1
                sizes.append(len(snd._rate_meta))

            snd.on_new_ack = checking_on_new_ack
            snd.start()
            h.sim.run(until=30.0)
            assert snd.finished and not snd._rate_meta
            assert len(sizes) > 100 and max(sizes) > 10
            assert (snd.stats.retransmissions > 0) == (buffer_pkts == 16)


class TestQuicPaced:
    def test_parameter_validation(self):
        h = Harness()
        pair = h.db.add_pair(rtt=0.05)
        with pytest.raises(ValueError):
            QuicPacedSender(h.sim, pair.left, 1, pair.right.node_id,
                            pacing_gain=0.0)
        with pytest.raises(ValueError):
            QuicPacedSender(h.sim, pair.left, 2, pair.right.node_id,
                            burst_size=-1)

    def test_interval_is_gain_times_tighter_than_plain_pacing(self):
        h = Harness()
        pair = h.db.add_pair(rtt=0.05)
        plain = PacedSender(h.sim, pair.left, 1, pair.right.node_id,
                            base_rtt=0.05)
        quic = QuicPacedSender(h.sim, pair.left, 2, pair.right.node_id,
                               base_rtt=0.05)
        plain.cwnd = quic.cwnd = 20.0
        assert quic.pacing_interval() == pytest.approx(
            plain.pacing_interval() / 1.25
        )
        assert quic.pacing_rate_bps() == pytest.approx(
            1.25 * plain.pacing_rate_bps()
        )

    def test_burst_tokens_refill_after_idle(self):
        h = Harness(buffer_pkts=100)
        snd, _ = wire_flow(h, "quic-paced", total_packets=500)
        snd.start()
        h.sim.run(until=2.0)
        snd._burst_tokens = 0  # steady pacing has long spent the allowance
        snd._last_send_time = h.sim.now - 2 * snd.pacing_rtt()  # idle gap
        snd._pace_fire()
        # The idle gap refilled the allowance (minus at most the one
        # packet this firing emitted).
        assert snd._burst_tokens >= snd.burst_size - 1 > 0

    def test_transfer_completes(self):
        h = Harness(buffer_pkts=50)
        snd, _ = wire_flow(h, "quic-paced", total_packets=200)
        snd.start()
        h.sim.run(until=30.0)
        assert snd.finished
