"""BBRv1-style model-based congestion control (Cardwell et al. 2016).

BBR does not react to individual losses at all — it builds an explicit
model of the path, the *bottleneck bandwidth* (windowed max of delivery
rate over ~10 round trips) and the *round-trip propagation time*
(windowed min of RTT over 10 seconds), and paces at ``gain * btlbw``
while capping in-flight data near the model's BDP.  A four-state machine
drives the gains:

STARTUP
    pacing/cwnd gain ``2/ln 2`` (doubles the sending rate every RTT, the
    rate-based analogue of slow start) until the bandwidth estimate stops
    growing for three rounds ("pipe full").
DRAIN
    inverse gain to pull the STARTUP queue back out of the bottleneck.
PROBE_BW
    the steady state: an eight-phase gain cycle ``1.25, 0.75, 1 × 6``,
    each phase lasting one rtprop — probe for more bandwidth, drain the
    probe's queue, then cruise.
PROBE_RTT
    if the rtprop estimate has not been refreshed for 10 s, drop the
    window to 4 packets for ``max(rtprop, 200 ms)`` to drain the pipe and
    re-measure the floor.

Relevance here: BBR is *rate-based at every timescale*, so the paper's
Fig. 7 question — does bursty sub-RTT loss discriminate against smooth
senders? — gets a very different answer: BBR mostly does not care which
packets are lost, only what the ACK stream says about delivery rate.  The
zoo-grid experiment (:mod:`repro.experiments.zoo_grid`) runs exactly that
comparison.  This is a simulator-grade BBRv1: the delivery-rate sampler,
filters, gain cycle, and state machine follow the paper; minor mechanisms
(app-limited tracking, packet conservation during recovery) are simplified.
"""

from __future__ import annotations

import math
from collections import deque
from typing import Optional

from repro.tcp.pacing import PacedSender

__all__ = ["BbrSender"]

#: STARTUP gain 2/ln2: doubles the delivery rate each round trip.
STARTUP_GAIN = 2.0 / math.log(2.0)
#: PROBE_BW's eight-phase pacing-gain cycle, each phase one rtprop long.
PROBE_BW_GAINS = (1.25, 0.75, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0)
#: btlbw filter window (round trips) and rtprop filter window (seconds).
BTLBW_WINDOW_ROUNDS = 10
RTPROP_WINDOW_S = 10.0
#: PROBE_RTT floor: window in packets, and minimum dwell time.
PROBE_RTT_CWND = 4.0
PROBE_RTT_DURATION_S = 0.2


class BbrSender(PacedSender):
    """Rate-based BBRv1 sender on the shared reliability machinery.

    Reuses :class:`~repro.tcp.pacing.PacedSender`'s timer-driven emission
    (one packet per pacing interval) but derives the interval from the
    path model — ``pacing_gain * btlbw`` — instead of ``cwnd / RTT``, and
    replaces the NewReno window laws entirely: loss triggers
    retransmission for *reliability*, never multiplicative decrease.
    Until the model has its first bandwidth sample the sender paces at
    ``cwnd / RTT`` with the STARTUP gain, which reproduces slow start's
    exponential ramp in rate form.

    The model is read on every pacing decision, so its bookkeeping is
    amortised O(1): the btlbw filter is a monotone deque whose head is
    the max over the last ``BTLBW_WINDOW_ROUNDS`` rounds (the window
    slides when a sample arrives, by round count), and the delivery-rate
    sampler's per-sequence metadata is reclaimed once, as the cumulative
    ACK passes it.
    """

    variant = "bbr"

    def __init__(self, *args, base_rtt: Optional[float] = None, **kwargs):
        super().__init__(*args, base_rtt=base_rtt, **kwargs)
        # Path model.  (round, bps), rates strictly decreasing: head = max.
        self._btlbw_samples: deque[tuple[int, float]] = deque()
        self._rtprop: Optional[float] = None
        self._rtprop_stamp = 0.0
        # Delivery-rate sampler: cumulative delivered packets, and per-seq
        # (send_time, delivered_at_send) so each ACK yields a rate sample.
        self._delivered = 0
        self._rate_meta: dict[int, tuple[float, int]] = {}
        self._rate_floor = 0  # every key of _rate_meta is >= this
        # Round-trip counting (one round per window's worth of ACKs).
        self.round_count = 0
        self._round_end_seq = 0
        # State machine.
        self.state = "STARTUP"
        self.pacing_gain = STARTUP_GAIN
        self.cwnd_gain = STARTUP_GAIN
        self.cycle_index = 0
        self._cycle_stamp = 0.0
        self._full_bw = 0.0
        self._full_bw_rounds = 0
        self._full_pipe = False
        self._probe_rtt_done = 0.0

    # ------------------------------------------------------------------
    # path model
    # ------------------------------------------------------------------
    def btlbw_bps(self) -> float:
        """Bottleneck-bandwidth estimate: windowed max of delivery rate."""
        if not self._btlbw_samples:
            return 0.0
        return self._btlbw_samples[0][1]

    def rtprop(self) -> float:
        """Round-trip propagation estimate: windowed min of RTT samples."""
        if self._rtprop is not None:
            return self._rtprop
        if self.base_rtt is not None:
            return self.base_rtt
        return self.rto

    def bdp_packets(self) -> float:
        """The model's bandwidth-delay product, in packets."""
        bw = self.btlbw_bps()
        if bw <= 0.0:
            return 0.0
        return bw * self.rtprop() / (self.packet_size * 8.0)

    def _update_btlbw(self, rate_bps: float) -> None:
        # A sample no larger than a newer one expires first and can never
        # again be the max: drop it on insert.  The rest expire by round.
        samples = self._btlbw_samples
        while samples and samples[-1][1] <= rate_bps:
            samples.pop()
        samples.append((self.round_count, rate_bps))
        horizon = self.round_count - BTLBW_WINDOW_ROUNDS
        while samples[0][0] <= horizon:
            samples.popleft()

    def _rtt_sample(self, rtt: float) -> None:
        super()._rtt_sample(rtt)
        now = self.sim.now
        if (
            self._rtprop is None
            or rtt <= self._rtprop
            or now - self._rtprop_stamp > RTPROP_WINDOW_S
        ):
            self._rtprop = rtt
            self._rtprop_stamp = now

    # ------------------------------------------------------------------
    # delivery-rate sampling
    # ------------------------------------------------------------------
    def _emit(self, seq: int, retransmission: bool) -> None:
        self._rate_meta[seq] = (self.sim.now, self._delivered)
        super()._emit(seq, retransmission)

    def _sample_delivery_rate(self, ack: int) -> None:
        meta = self._rate_meta.get(ack - 1)
        # highest_acked moves before on_new_ack, so nothing below ``ack``
        # is emitted again: a floor cursor prunes each key exactly once.
        for seq in range(self._rate_floor, ack):
            self._rate_meta.pop(seq, None)
        self._rate_floor = ack
        if meta is None:
            return
        send_time, delivered_at_send = meta
        elapsed = self.sim.now - send_time
        if elapsed <= 0.0:
            return
        rate = (self._delivered - delivered_at_send) * self.packet_size * 8.0 / elapsed
        self._update_btlbw(rate)

    # ------------------------------------------------------------------
    # window laws (NewReno's are replaced wholesale)
    # ------------------------------------------------------------------
    def on_new_ack(self, ack: int, newly_acked: int) -> None:
        """Model update + state machine step; no loss-driven decrease."""
        self.in_fast_recovery = False
        self.dupacks = 0
        self._delivered += newly_acked
        if ack > self._round_end_seq:
            self.round_count += 1
            self._round_end_seq = self.next_seq
        self._sample_delivery_rate(ack)
        self._advance_state_machine()
        self._set_cwnd(newly_acked)

    def on_dup_ack(self, ack: int, count: int) -> None:
        """Fast retransmit for reliability; the model, not the loss,
        decides the rate."""
        if count == 3:
            self.stats.fast_retransmits += 1
            self.retransmit_head()

    def on_timeout(self) -> None:
        """Go-back-N resend with a temporary conservative window; the
        model restores cwnd on the next ACK."""
        self.cwnd = PROBE_RTT_CWND
        self.go_back_n()

    def _set_cwnd(self, newly_acked: int) -> None:
        if self.state == "PROBE_RTT":
            self.cwnd = PROBE_RTT_CWND
            return
        bdp = self.bdp_packets()
        if bdp <= 0.0:
            # No bandwidth sample yet: exponential rate ramp à la slow start.
            self.cwnd += newly_acked
        else:
            self.cwnd = max(self.cwnd_gain * bdp, PROBE_RTT_CWND)
        self.cwnd = min(self.cwnd, self.max_cwnd)

    # ------------------------------------------------------------------
    # state machine
    # ------------------------------------------------------------------
    def _advance_state_machine(self) -> None:
        now = self.sim.now
        if self.state != "PROBE_RTT" and self._rtprop is not None \
                and now - self._rtprop_stamp > RTPROP_WINDOW_S:
            self.state = "PROBE_RTT"
            self.pacing_gain = 1.0
            self.cwnd_gain = 1.0
            self._probe_rtt_done = now + max(self.rtprop(), PROBE_RTT_DURATION_S)
        if self.state == "STARTUP":
            self._check_full_pipe()
            if self._full_pipe:
                self.state = "DRAIN"
                self.pacing_gain = 1.0 / STARTUP_GAIN
                self.cwnd_gain = STARTUP_GAIN
        if self.state == "DRAIN" and self.inflight <= self.bdp_packets():
            self._enter_probe_bw(now)
        if self.state == "PROBE_BW" and now - self._cycle_stamp > self.rtprop():
            self.cycle_index = (self.cycle_index + 1) % len(PROBE_BW_GAINS)
            self.pacing_gain = PROBE_BW_GAINS[self.cycle_index]
            self._cycle_stamp = now
        if self.state == "PROBE_RTT" and now >= self._probe_rtt_done:
            self._rtprop_stamp = now  # floor re-measured; reset the clock
            if self._full_pipe:
                self._enter_probe_bw(now)
            else:
                self.state = "STARTUP"
                self.pacing_gain = STARTUP_GAIN
                self.cwnd_gain = STARTUP_GAIN

    def _enter_probe_bw(self, now: float) -> None:
        self.state = "PROBE_BW"
        self.cycle_index = 0
        self.pacing_gain = PROBE_BW_GAINS[0]
        self.cwnd_gain = 2.0
        self._cycle_stamp = now

    def _check_full_pipe(self) -> None:
        """Pipe is full when btlbw stops growing >= 25% for three rounds."""
        bw = self.btlbw_bps()
        if bw >= self._full_bw * 1.25:
            self._full_bw = bw
            self._full_bw_rounds = 0
            return
        self._full_bw_rounds += 1
        if self._full_bw_rounds >= 3:
            self._full_pipe = True

    # ------------------------------------------------------------------
    # pacing
    # ------------------------------------------------------------------
    def pacing_rate_bps(self) -> float:
        """The model-driven wire rate: ``pacing_gain * btlbw``."""
        bw = self.btlbw_bps()
        if bw > 0.0:
            return self.pacing_gain * bw
        return self.pacing_gain * super().pacing_rate_bps()

    def pacing_interval(self) -> float:
        """Gap between emissions: one packet at the model's pacing rate."""
        rate = self.pacing_rate_bps()
        if rate <= 0.0:
            return super().pacing_interval()
        return self.packet_size * 8.0 / rate
