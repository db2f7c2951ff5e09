"""Delay-based congestion control (paper §5, reference [23] — FAST TCP).

The paper's final suggestion for escaping loss burstiness: use a
congestion signal other than loss.  Queueing *delay* is continuous and
observed by every packet, so a delay-based controller needs no loss bursts
at all.  This sender implements the FAST TCP window law:

    w  <-  min( 2w,  (1 - gamma) w + gamma (baseRTT / RTT * w + alpha) )

updated once per RTT.  In equilibrium each flow parks ``alpha`` packets in
the bottleneck queue: N flows share the link equally (fairness independent
of RTT) and, with a buffer above ``N * alpha``, the queue never overflows —
zero loss, no sawtooth ("better stability and fairness", as the paper puts
it).  Loss handling (fast retransmit / RTO) is retained for reliability
but is not the control signal.
"""

from __future__ import annotations

from typing import Optional

from repro.sim.engine import Event
from repro.tcp.base import TcpSender

__all__ = ["FastSender"]


class FastSender(TcpSender):
    """Delay-based (FAST TCP) sender.

    Parameters (in addition to :class:`repro.tcp.base.TcpSender`'s):

    alpha:
        Target number of packets buffered at the bottleneck per flow.
    gamma:
        Update smoothing in (0, 1].
    """

    variant = "fast"

    def __init__(self, *args, alpha: float = 10.0, gamma: float = 0.5, **kwargs):
        super().__init__(*args, **kwargs)
        if alpha <= 0:
            raise ValueError(f"alpha must be positive, got {alpha}")
        if not (0.0 < gamma <= 1.0):
            raise ValueError(f"gamma must be in (0, 1], got {gamma}")
        self.alpha = float(alpha)
        self.gamma = float(gamma)
        self.base_rtt: Optional[float] = None  # min observed RTT
        self._update_timer: Optional[Event] = None
        self.window_updates = 0

    # -- RTT tracking --------------------------------------------------------
    def _rtt_sample(self, rtt: float) -> None:
        super()._rtt_sample(rtt)
        if self.base_rtt is None or rtt < self.base_rtt:
            self.base_rtt = rtt

    # -- periodic window law ---------------------------------------------------
    def _start_now(self) -> None:
        super()._start_now()
        self._schedule_update()

    def _schedule_update(self) -> None:
        if self.finished:
            return
        interval = self.srtt if self.srtt is not None else self.rto
        self._update_timer = self.sim.schedule(interval, self._update_window)

    def _update_window(self) -> None:
        self._update_timer = None
        if self.finished:
            return
        if self.srtt is not None and self.base_rtt is not None:
            target = (1.0 - self.gamma) * self.cwnd + self.gamma * (
                self.base_rtt / self.srtt * self.cwnd + self.alpha
            )
            self.cwnd = min(2.0 * self.cwnd, target, self.max_cwnd)
            self.cwnd = max(self.cwnd, 2.0)
            self.window_updates += 1
            self.try_send()
        self._schedule_update()

    # -- loss handling: reliability only, no multiplicative decrease -----------
    def on_new_ack(self, ack: int, newly_acked: int) -> None:
        """Variant window law for a cumulative ACK advancing the left edge."""
        if self.in_fast_recovery:
            if ack > self.recover:
                self.in_fast_recovery = False
                self.dupacks = 0
            else:
                self.retransmit_head()
            return
        self.dupacks = 0
        # No ACK-clocked growth: the periodic delay law owns the window.

    def on_dup_ack(self, ack: int, count: int) -> None:
        """Variant reaction to the count-th duplicate ACK."""
        if self.in_fast_recovery:
            return
        if count == 3:
            self.stats.fast_retransmits += 1
            self.recover = self.next_seq
            self.retransmit_head()
            self.in_fast_recovery = True
            # Mild reduction: delay, not loss, is the control signal, but a
            # genuine overflow means the estimator lagged — trim once.
            self.cwnd = max(2.0, self.cwnd * 0.875)

    def on_timeout(self) -> None:
        """Variant recovery after a retransmission timeout."""
        self.cwnd = 2.0
        self.recover = self.next_seq
        self.go_back_n()

    def _complete(self) -> None:
        super()._complete()
        if self._update_timer is not None:
            self._update_timer.cancel()
            self._update_timer = None
