"""Receivers: TCP sink (cumulative ACKs), UDP/probe sinks.

The TCP sink acknowledges every data packet immediately (no delayed ACKs,
matching the NS-2 one-way TCP agents the paper's scenarios use), generating
the duplicate-ACK stream that drives fast retransmit at the sender.
"""

from __future__ import annotations

from typing import Callable, Optional

from repro.sim.engine import Simulator
from repro.sim.node import Host
from repro.sim.packet import ACK, DATA, Packet
from repro.sim.trace import FlowStats, ThroughputTrace

__all__ = ["TcpSink", "UdpSink", "ProbeSink"]


class TcpSink:
    """Cumulative-ACK TCP receiver.

    Buffers out-of-order packets and acknowledges with the next expected
    sequence number.  The cumulative point plus the out-of-order set is
    the whole delivered state: a packet counts in ``stats`` once, when
    it is at or above ``next_expected`` and not already buffered.

    When ECN is in play the congestion-experienced mark on
    a data packet is echoed on its ACK (a per-packet echo — the simplified
    model the paper's extension [22] builds on, rather than RFC 3168's
    sticky echo + CWR handshake).

    With ``delayed_acks`` (RFC 1122 §4.2.3.2): in-order data is acknowledged
    every second packet or after ``delack_timeout`` seconds, whichever comes
    first; out-of-order data (and ECN marks) are acknowledged immediately so
    fast retransmit and congestion echoes are never delayed.
    """

    def __init__(
        self,
        sim: Simulator,
        host: Host,
        flow_id: int,
        src: int,
        throughput: Optional[ThroughputTrace] = None,
        on_data: Optional[Callable[[Packet, float], None]] = None,
        delayed_acks: bool = False,
        delack_timeout: float = 0.040,
        sack: bool = False,
        max_sack_blocks: int = 3,
    ):
        if delack_timeout <= 0:
            raise ValueError(f"delack_timeout must be positive, got {delack_timeout}")
        if max_sack_blocks < 1:
            raise ValueError(f"need at least 1 SACK block, got {max_sack_blocks}")
        self.sim = sim
        self.host = host
        self.flow_id = flow_id
        self.src = src  # node id the ACKs go back to
        self.next_expected = 0
        self._out_of_order: set[int] = set()
        # Raw wire arrivals (duplicates included): the receiver-side term of
        # the per-flow conservation identity sent == arrived + dropped that
        # repro.obs.invariants verifies (stats.packets_received is deduped).
        self.packets_arrived = 0
        self.bytes_arrived = 0
        self.stats = FlowStats(flow_id)
        self.throughput = throughput
        self.on_data = on_data
        self.delayed_acks = bool(delayed_acks)
        self.delack_timeout = float(delack_timeout)
        self.sack = bool(sack)
        self.max_sack_blocks = int(max_sack_blocks)
        self._unacked_count = 0
        self._delack_timer = None
        self.acks_sent = 0
        host.attach(flow_id, self)

    def receive(self, pkt: Packet) -> None:
        """Agent/node entry point: process an incoming packet."""
        if pkt.kind != DATA:
            self.sim.free_packet(pkt)
            return
        now = self.sim.now
        self.packets_arrived += 1
        self.bytes_arrived += pkt.size
        if pkt.seq >= self.next_expected and pkt.seq not in self._out_of_order:
            self.stats.packets_received += 1
            self.stats.bytes_received += pkt.size
            if self.throughput is not None:
                self.throughput.record(self.flow_id, pkt.size, now)
        if self.on_data is not None:
            self.on_data(pkt, now)

        in_order = pkt.seq == self.next_expected
        if in_order:
            self.next_expected += 1
            while self.next_expected in self._out_of_order:
                self._out_of_order.remove(self.next_expected)
                self.next_expected += 1
        elif pkt.seq > self.next_expected:
            self._out_of_order.add(pkt.seq)

        if self.delayed_acks and in_order and not pkt.ecn_marked:
            self._unacked_count += 1
            if self._unacked_count >= 2:
                self._send_ack(ecn_echo=False)
            elif self._delack_timer is None:
                self._delack_timer = self.sim.schedule(
                    self.delack_timeout, self._delack_fired
                )
            # The sink is the data packet's terminal consumer unless an
            # on_data observer may retain it.
            if self.on_data is None:
                self.sim.free_packet(pkt)
            return
        # Immediate ACK: duplicate-triggering or ECN-echoing packets.
        self._send_ack(ecn_echo=pkt.ecn_marked)
        if self.on_data is None:
            self.sim.free_packet(pkt)

    def _delack_fired(self) -> None:
        self._delack_timer = None
        if self._unacked_count > 0:
            self._send_ack(ecn_echo=False)

    def sack_blocks(self) -> tuple[tuple[int, int], ...]:
        """Contiguous out-of-order ranges as half-open ``(start, end)``
        blocks, highest first, at most ``max_sack_blocks`` (RFC 2018)."""
        if not self._out_of_order:
            return ()
        seqs = sorted(self._out_of_order)
        blocks: list[tuple[int, int]] = []
        start = prev = seqs[0]
        for s in seqs[1:]:
            if s == prev + 1:
                prev = s
                continue
            blocks.append((start, prev + 1))
            start = prev = s
        blocks.append((start, prev + 1))
        blocks.reverse()  # most recently relevant (highest) first
        return tuple(blocks[: self.max_sack_blocks])

    def _send_ack(self, ecn_echo: bool) -> None:
        if self._delack_timer is not None:
            self._delack_timer.cancel()
            self._delack_timer = None
        self._unacked_count = 0
        ack = self.sim.alloc_packet(
            self.flow_id,
            self.next_expected,
            40,
            kind=ACK,
            src=self.host.node_id,
            dst=self.src,
            created=self.sim.now,
            meta=self.sack_blocks() if self.sack else None,
        )
        ack.ecn_echo = ecn_echo
        self.acks_sent += 1
        self.host.send(ack)


class UdpSink:
    """Counts datagrams; used as the far end of noise sources."""

    def __init__(self, sim: Simulator, host: Host, flow_id: int):
        self.sim = sim
        self.packets_received = 0
        self.bytes_received = 0
        host.attach(flow_id, self)

    def receive(self, pkt: Packet) -> None:
        """Agent/node entry point: process an incoming packet."""
        self.packets_received += 1
        self.bytes_received += pkt.size
        self.sim.free_packet(pkt)


class ProbeSink:
    """Records (seq, arrival time) of every probe datagram.

    The PlanetLab-style analysis reconstructs which CBR packets were lost
    (gaps in the received sequence set) and when (from the deterministic
    send schedule), exactly as receiver-side UDP measurement does.
    """

    def __init__(self, sim: Simulator, host: Host, flow_id: int):
        self.sim = sim
        self.flow_id = flow_id
        self.seqs: list[int] = []
        self.times: list[float] = []
        host.attach(flow_id, self)

    def receive(self, pkt: Packet) -> None:
        """Agent/node entry point: process an incoming packet."""
        self.seqs.append(pkt.seq)
        self.times.append(self.sim.now)
        self.sim.free_packet(pkt)

    def received_set(self) -> set[int]:
        """Set of sequence numbers seen by this sink."""
        return set(self.seqs)

    def __len__(self) -> int:
        return len(self.seqs)
