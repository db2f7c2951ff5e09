"""Reliable-transfer machinery shared by all TCP senders.

Sequence numbers are in *packets* (the NS-2 convention): data packet ``k``
carries ``seq = k``; a cumulative ACK carries the next expected packet
index.  The base class owns everything protocol-variant-independent:

* packet emission and in-flight accounting,
* RTT estimation (RFC 6298 SRTT/RTTVAR, Karn's algorithm),
* the retransmission timer with exponential backoff,
* classification of incoming ACKs into new / duplicate,
* completion detection for finite transfers.

Congestion-control variants (:mod:`repro.tcp.reno`,
:mod:`repro.tcp.newreno`, :mod:`repro.tcp.pacing`) override the small set
of ``on_*`` hooks.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Optional

from repro.sim.engine import Event, Simulator

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.obs.metrics import MetricsRegistry
from repro.sim.node import Host
from repro.sim.packet import ACK, DATA, Packet
from repro.sim.trace import FlowStats

__all__ = ["TcpSender", "ACK_SIZE"]

ACK_SIZE = 40  # bytes on the wire for a pure ACK


class TcpSender:
    """Base window-based TCP sender.

    Parameters
    ----------
    sim, host:
        Engine and the local host the sender is attached to.
    flow_id:
        Flow identifier; the matching sink must be attached under the same
        id on the destination host.
    dst:
        Destination node id.
    total_packets:
        Number of data packets to transfer; ``None`` means unbounded
        (long-lived flow, runs until the simulation horizon).
    packet_size:
        Data packet wire size in bytes.
    initial_cwnd:
        Initial congestion window in packets (the paper describes flows
        starting at two packets per RTT; RFC 2581 allows 1–2).
    max_cwnd:
        Receiver-window stand-in: hard cap on cwnd in packets.
    min_rto:
        Lower bound on the retransmission timeout (NS-2 uses 0.2 s).
    ecn:
        Negotiate ECN: data packets are sent ECN-capable and ECN echoes
        trigger a once-per-window rate reduction.
    on_complete:
        Callback invoked once, with the completion time, when
        ``total_packets`` are acknowledged.
    """

    #: Subclasses give themselves a human-readable variant name.
    variant = "base"

    def __init__(
        self,
        sim: Simulator,
        host: Host,
        flow_id: int,
        dst: int,
        total_packets: Optional[int] = None,
        packet_size: int = 1000,
        initial_cwnd: float = 2.0,
        initial_ssthresh: float = 1e9,
        max_cwnd: float = 1e9,
        min_rto: float = 0.2,
        max_rto: float = 60.0,
        ecn: bool = False,
        on_complete: Optional[Callable[[float], None]] = None,
    ):
        if total_packets is not None and total_packets <= 0:
            raise ValueError(f"total_packets must be positive, got {total_packets}")
        if packet_size <= 0:
            raise ValueError(f"packet_size must be positive, got {packet_size}")
        if initial_cwnd < 1.0:
            raise ValueError(f"initial cwnd must be >= 1 packet, got {initial_cwnd}")
        self.sim = sim
        self.host = host
        self.flow_id = flow_id
        self.dst = dst
        self.total_packets = total_packets
        self.packet_size = int(packet_size)
        self.ecn = bool(ecn)
        self.on_complete = on_complete

        # Congestion state (packets).
        self.cwnd = float(initial_cwnd)
        self.initial_cwnd = float(initial_cwnd)
        self.ssthresh = float(initial_ssthresh)
        self.max_cwnd = float(max_cwnd)
        self.dupacks = 0
        self.in_fast_recovery = False
        self.recover = -1  # NewReno high-water mark

        # Sequencing.
        self.next_seq = 0  # next *new* sequence number to send
        self.highest_acked = 0  # cumulative: all seq < highest_acked are acked

        # RTT estimation (RFC 6298).
        self.srtt: Optional[float] = None
        self.rttvar: Optional[float] = None
        self.min_rto = float(min_rto)
        self.max_rto = float(max_rto)
        self.rto = 1.0  # initial RTO before the first sample
        self._backoff = 1.0
        self._rto_timer: Optional[Event] = None

        # Karn: per-seq send metadata -> (send_time, was_retransmitted).
        self._send_time: dict[int, tuple[float, bool]] = {}
        # Classic single-segment RTT timer (Jacobson): exactly one in-flight
        # segment is timed at a time; its sample is discarded if the segment
        # is ever retransmitted (Karn's algorithm).
        self._timed_seq: Optional[int] = None
        self._timed_at = 0.0
        # ECN: sequence up to which we've already reacted this window.
        self._cwr_until = -1

        self.stats = FlowStats(flow_id)
        # Timestamped retransmissions: the raw material of TCP-trace-based
        # loss reconstruction (paper §2 / future work — comparing the CBR
        # methodology against Paxson-style TCP trace analysis).
        self.retx_times: list[float] = []
        self.started = False
        self.finished = False

        host.attach(flow_id, self)

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def start(self, at: float = 0.0) -> None:
        """Schedule the flow to begin sending at absolute time ``at``."""
        self.sim.schedule_at(at, self._start_now)

    def _start_now(self) -> None:
        if self.started:
            return
        self.started = True
        self.stats.start_time = self.sim.now
        self.try_send()

    # ------------------------------------------------------------------
    # in-flight accounting and emission
    # ------------------------------------------------------------------
    @property
    def inflight(self) -> int:
        """Packets sent but not cumulatively acknowledged."""
        return self.next_seq - self.highest_acked

    @property
    def effective_window(self) -> float:
        """Usable window: cwnd capped by the receiver window."""
        return min(self.cwnd, self.max_cwnd)

    def _data_remaining(self) -> bool:
        return self.total_packets is None or self.next_seq < self.total_packets

    def can_send(self) -> bool:
        """Window-based gate: room in the window and data left to send."""
        # inflight < int(effective_window) and _data_remaining(), read
        # straight off the attributes: try_send asks once per packet.
        cwnd = self.cwnd
        if cwnd > self.max_cwnd:
            cwnd = self.max_cwnd
        next_seq = self.next_seq
        total = self.total_packets
        return (next_seq - self.highest_acked < int(cwnd)
                and (total is None or next_seq < total))

    def try_send(self) -> None:
        """Send as many new packets as the window allows (back-to-back).

        This is the window-based burst behaviour at the heart of the paper:
        whenever ``pif(t) < w(t)``, the gap is filled immediately, so
        packets leave in sub-RTT clusters.  :class:`repro.tcp.pacing`
        overrides this with timer-spread emission.
        """
        while self.can_send():
            self._emit(self.next_seq, retransmission=False)
            self.next_seq += 1

    def _emit(self, seq: int, retransmission: bool) -> None:
        now = self.sim.now
        pkt = self.sim.alloc_packet(
            self.flow_id,
            seq,
            self.packet_size,
            kind=DATA,
            src=self.host.node_id,
            dst=self.dst,
            created=now,
            ecn_capable=self.ecn,
        )
        prior = self._send_time.get(seq)
        was_retx = retransmission or prior is not None
        self._send_time[seq] = (now, was_retx)
        if was_retx and self._timed_seq == seq:
            # Karn: a retransmitted segment's sample is ambiguous; drop it.
            self._timed_seq = None
        elif not was_retx and self._timed_seq is None and not self.in_fast_recovery:
            # Segments sent during fast recovery are only cumulatively
            # acked when recovery completes, so timing them would fold the
            # whole recovery episode into the RTT estimate.
            self._timed_seq = seq
            self._timed_at = now
        self.stats.packets_sent += 1
        self.stats.bytes_sent += pkt.size
        # Count every re-emission of an already-sent sequence — including
        # go-back-N resends after a timeout, which arrive here with
        # retransmission=False but a prior send record.
        if was_retx:
            self.stats.retransmissions += 1
            self.retx_times.append(now)
        self.host.send(pkt)
        if self._rto_timer is None:
            self._arm_rto()

    # ------------------------------------------------------------------
    # receive path
    # ------------------------------------------------------------------
    def receive(self, pkt: Packet) -> None:
        """Agent entry point: process an incoming ACK."""
        if pkt.kind != ACK or self.finished:
            self.sim.free_packet(pkt)
            return
        if pkt.ecn_echo:
            self._handle_ecn_echo()
        ack = pkt.seq
        # Last read of the ACK's fields is above: recycle before the window
        # handlers run (they may allocate retransmissions from the pool).
        self.sim.free_packet(pkt)
        if ack > self.highest_acked:
            self._handle_new_ack(ack)
        elif ack == self.highest_acked:
            self._handle_dup_ack(ack)
        # acks below highest_acked are stale; ignore.

    def _handle_new_ack(self, ack: int) -> None:
        # RTT sampling: one timed segment at a time (Jacobson), sample
        # discarded on retransmission (Karn, enforced at emission time).
        if self._timed_seq is not None and ack > self._timed_seq:
            meta = self._send_time.get(self._timed_seq)
            if meta is not None and not meta[1]:
                self._rtt_sample(self.sim.now - self._timed_at)
            self._timed_seq = None
        for seq in range(self.highest_acked, ack):
            self._send_time.pop(seq, None)

        newly_acked = ack - self.highest_acked
        self.highest_acked = ack
        # Go-back-N may have rewound next_seq below the new cumulative
        # point (the rewound packets were acked from orbit); never let the
        # in-flight count go negative.
        if self.next_seq < ack:
            self.next_seq = ack
        self._backoff = 1.0

        self.on_new_ack(ack, newly_acked)

        if (
            self.total_packets is not None
            and self.highest_acked >= self.total_packets
            and not self.finished
        ):
            self._complete()
            return

        self._restart_rto()
        self.try_send()

    def _handle_dup_ack(self, ack: int) -> None:
        if self.next_seq == self.highest_acked:
            return  # window update / stray; nothing in flight
        self.dupacks += 1
        self.on_dup_ack(ack, self.dupacks)
        self.try_send()

    # ------------------------------------------------------------------
    # hooks for congestion-control variants
    # ------------------------------------------------------------------
    def on_new_ack(self, ack: int, newly_acked: int) -> None:
        """Window update for a cumulative ACK advancing the left edge."""
        raise NotImplementedError

    def on_dup_ack(self, ack: int, count: int) -> None:
        """Reaction to the ``count``-th duplicate ACK for ``ack``."""
        raise NotImplementedError

    def on_timeout(self) -> None:
        """Reaction to a retransmission timeout (after base bookkeeping)."""
        raise NotImplementedError

    # ------------------------------------------------------------------
    # shared congestion-control helpers
    # ------------------------------------------------------------------
    def slow_start_or_avoidance_increase(self, newly_acked: int) -> None:
        """Standard additive window growth: +1/ACK in slow start (applied
        per newly-acked packet to emulate per-ACK growth under cumulative
        ACKs), +1/cwnd per ACK in congestion avoidance."""
        if self.cwnd < self.ssthresh:
            # Slow start: grow by one packet per acked packet, but never
            # beyond ssthresh + the CA share (simplification: cap at ssthresh).
            self.cwnd = min(self.cwnd + newly_acked, max(self.ssthresh, self.cwnd))
            if self.cwnd >= self.ssthresh:
                pass  # subsequent growth falls through to CA on later acks
        else:
            self.cwnd += newly_acked / self.cwnd
        self.cwnd = min(self.cwnd, self.max_cwnd)

    def halve_window(self) -> None:
        """Multiplicative decrease entering loss recovery."""
        self.ssthresh = max(self.inflight / 2.0, 2.0)

    def _handle_ecn_echo(self) -> None:
        """React to an ECN congestion echo at most once per window."""
        if not self.ecn:
            return
        if self.highest_acked >= self._cwr_until:
            self.halve_window()
            self.cwnd = max(self.ssthresh, 1.0)
            self._cwr_until = self.next_seq

    # ------------------------------------------------------------------
    # RTT / RTO machinery
    # ------------------------------------------------------------------
    def _rtt_sample(self, rtt: float) -> None:
        self.stats.rtt_samples.append(rtt)
        if self.srtt is None:
            self.srtt = rtt
            self.rttvar = rtt / 2.0
        else:
            assert self.rttvar is not None
            self.rttvar = 0.75 * self.rttvar + 0.25 * abs(self.srtt - rtt)
            self.srtt = 0.875 * self.srtt + 0.125 * rtt
        self.rto = min(
            self.max_rto, max(self.min_rto, self.srtt + max(4.0 * self.rttvar, 0.01))
        )

    def _arm_rto(self) -> None:
        self._rto_timer = self.sim.schedule(self.rto * self._backoff, self._rto_fired)

    def _restart_rto(self) -> None:
        if self._rto_timer is not None:
            self._rto_timer.cancel()
            self._rto_timer = None
        if self.next_seq > self.highest_acked:  # something in flight
            self._arm_rto()

    def _rto_fired(self) -> None:
        self._rto_timer = None
        if self.finished or self.inflight == 0:
            return
        self.stats.timeouts += 1
        self._backoff = min(self._backoff * 2.0, 64.0)
        # Everything outstanding becomes eligible for (re)transmission.
        self.dupacks = 0
        self.in_fast_recovery = False
        self._timed_seq = None  # Karn: no sampling across a timeout
        self.on_timeout()
        if self._rto_timer is None:  # _emit may already have re-armed
            self._arm_rto()

    def retransmit_head(self) -> None:
        """Retransmit the first unacknowledged packet."""
        if self.inflight > 0:
            self._emit(self.highest_acked, retransmission=True)

    def go_back_n(self) -> None:
        """Timeout recovery: rewind ``next_seq`` so the window is resent."""
        self.retransmit_head()
        self.next_seq = self.highest_acked + 1

    # ------------------------------------------------------------------
    def _complete(self) -> None:
        self.finished = True
        self.stats.finish_time = self.sim.now
        if self._rto_timer is not None:
            self._rto_timer.cancel()
            self._rto_timer = None
        if self.on_complete is not None:
            self.on_complete(self.sim.now)

    def attach_metrics(self, registry: "MetricsRegistry") -> None:
        """Expose live flow accounting as callback gauges in ``registry``
        under ``flow.<id>.*`` (the counters the per-flow conservation
        checks in :mod:`repro.obs.invariants` verify)."""
        prefix = f"flow.{self.flow_id}"
        registry.gauge(f"{prefix}.packets_sent", fn=lambda: self.stats.packets_sent)
        registry.gauge(f"{prefix}.bytes_sent", fn=lambda: self.stats.bytes_sent)
        registry.gauge(
            f"{prefix}.retransmissions", fn=lambda: self.stats.retransmissions
        )
        registry.gauge(f"{prefix}.timeouts", fn=lambda: self.stats.timeouts)
        registry.gauge(f"{prefix}.inflight", fn=lambda: self.inflight)
        registry.gauge(f"{prefix}.cwnd", fn=lambda: self.cwnd)
        registry.gauge(f"{prefix}.highest_acked", fn=lambda: self.highest_acked)

    def pacing_rate_bps(self) -> float:
        """Sub-RTT emission rate the current window sustains (bits/sec):
        ``effective_window * packet_size * 8 / rtt``.  For window-based
        senders this is the *average* rate (emission itself is bursty);
        for :class:`repro.tcp.pacing.PacedSender` it is the actual wire
        pacing rate.  The telemetry samplers record it per flow."""
        rtt = self.rtt_estimate()
        if rtt <= 0:
            return 0.0
        return self.effective_window * self.packet_size * 8.0 / rtt

    def rtt_estimate(self) -> float:
        """Current smoothed RTT (falls back to the latest sample or RTO)."""
        if self.srtt is not None:
            return self.srtt
        if self.stats.rtt_samples:
            return self.stats.rtt_samples[-1]
        return self.rto

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<{type(self).__name__} flow={self.flow_id} cwnd={self.cwnd:.2f} "
            f"acked={self.highest_acked} next={self.next_seq}>"
        )
