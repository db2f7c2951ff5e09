"""The two-event ``Link``, kept as the test oracle.

Until the per-hop path was fused, every hop cost two engine events: a
completion when the last bit left the transmitter, which counted the
packet forwarded, drew the reorder lag, scheduled the delivery and
popped the queue, then the delivery itself.  The shipped
:class:`repro.sim.link.Link` schedules the delivery when the
transmission starts and keeps a dequeue event only for packets that
waited; this is the old class, verbatim, so
``tests/sim/test_link_oracle.py`` can hold the new one to it.  The
only edits: the class is named ``TwoEventLink``, and the engine's
``schedule_fast`` (deleted with the timer wheel; links were its only
caller) is the module function :func:`schedule_fast` over the engine's
``push`` and ``reserve_seq`` primitives.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

from repro.sim.packet import Packet
from repro.sim.queues import DropTailQueue, EnqueueResult, Queue
from repro.sim.trace import ArrivalTrace, DropTrace

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for typing only
    import numpy as np

    from repro.obs.metrics import MetricsRegistry
    from repro.sim.engine import Simulator
    from repro.sim.node import Node

__all__ = ["TwoEventLink", "schedule_fast"]

_ENQUEUED = EnqueueResult.ENQUEUED
_DROPPED = EnqueueResult.DROPPED
_MARKED = EnqueueResult.MARKED


def schedule_fast(sim: "Simulator", delay: float, fn, *args) -> None:
    """The deleted ``Simulator.schedule_fast``: an uncancellable
    ``fn(*args)`` ``delay`` seconds from now."""
    sim.push((sim.now + delay, sim.reserve_seq(), fn, args))


class TwoEventLink:
    """One direction of a wire between two nodes.

    Parameters
    ----------
    sim:
        The event engine.
    dst:
        Receiving node; packets are delivered to ``dst.receive``.
    rate_bps:
        Transmission rate in bits per second.
    delay:
        One-way propagation delay in seconds.
    queue:
        Queue discipline; defaults to a large DropTail buffer (effectively
        infinite for access links).
    drop_trace / arrival_trace:
        Optional instrumentation shared across links.
    rng:
        Source of the two draws below; required when either is on.
    max_noise:
        Upper bound (seconds) of the uniform processing time added to each
        transmission; 0 draws nothing.
    reorder_prob / extra_delay:
        Per-packet probability that a delivery is late by ``extra_delay``
        seconds; 0 draws nothing.
    """

    def __init__(
        self,
        sim: "Simulator",
        dst: "Node",
        rate_bps: float,
        delay: float,
        queue: Optional[Queue] = None,
        name: Optional[str] = None,
        drop_trace: Optional[DropTrace] = None,
        arrival_trace: Optional[ArrivalTrace] = None,
        rng: Optional[np.random.Generator] = None,
        max_noise: float = 0.0,
        reorder_prob: float = 0.0,
        extra_delay: float = 0.005,
    ):
        if rate_bps <= 0:
            raise ValueError(f"link rate must be positive, got {rate_bps}")
        if delay < 0:
            raise ValueError(f"link delay must be non-negative, got {delay}")
        if max_noise < 0:
            raise ValueError(f"max_noise must be non-negative, got {max_noise}")
        if not (0.0 <= reorder_prob <= 1.0):
            raise ValueError(f"reorder_prob must be in [0, 1], got {reorder_prob}")
        if extra_delay <= 0:
            raise ValueError(f"extra_delay must be positive, got {extra_delay}")
        if (max_noise or reorder_prob) and rng is None:
            raise ValueError("a link with max_noise or reorder_prob needs an rng")
        # Auto-generated names draw from a per-simulator sequence so
        # back-to-back runs in one process get identical metric/trace keys.
        self.name = name if name is not None else f"link{sim.next_id('link')}"
        self.sim = sim
        self.dst = dst
        self.rate_bps = float(rate_bps)
        self.delay = float(delay)
        self.queue = queue if queue is not None else DropTailQueue(10**9, name=self.name)
        self.drop_trace = drop_trace
        self.arrival_trace = arrival_trace
        self.rng = rng
        self.max_noise = float(max_noise)
        self.reorder_prob = float(reorder_prob)
        self.extra_delay = float(extra_delay)
        self.reordered = 0
        self._install_queue_hooks()
        self.busy = False
        #: Fault-injection state: a downed link drops every offered packet.
        self.is_up = True
        # Accounting: offered == forwarded + transmitting + queued +
        # queue-dropped + dropped-down (the conservation identity
        # repro.obs.invariants.check_link verifies; down-drops are counted
        # separately so invariants hold modulo *injected* faults).
        self.packets_offered = 0
        self.packets_dropped_down = 0
        self.bytes_forwarded = 0
        self.packets_forwarded = 0
        self.busy_time = 0.0
        self.utilization_overruns = 0
        self.flap_count = 0
        self.registry: Optional["MetricsRegistry"] = None

    # ------------------------------------------------------------------
    def attach_queue(self, queue: Queue) -> None:
        """Swap in a queue discipline and take ownership of its head-drop
        and mark hooks (the link is the terminal consumer for dequeue-time
        drops: it records the trace entry and recycles the packet)."""
        self.queue = queue
        self._install_queue_hooks()

    def _install_queue_hooks(self) -> None:
        self.queue.head_drop_hook = self._on_head_drop
        self.queue.mark_hook = self._on_dequeue_mark

    def _on_head_drop(self, pkt: Packet, now: float) -> None:
        if self.drop_trace is not None:
            self.drop_trace.record(pkt, now, marked=False)
        self.sim.free_packet(pkt)

    def _on_dequeue_mark(self, pkt: Packet, now: float) -> None:
        if self.drop_trace is not None:
            self.drop_trace.record(pkt, now, marked=True)

    # ------------------------------------------------------------------
    def send(self, pkt: Packet) -> EnqueueResult:
        """Offer a packet to the link.

        If the transmitter is idle and the queue empty the packet starts
        transmitting immediately; otherwise it is offered to the queue,
        which may drop or ECN-mark it.
        """
        sim = self.sim
        now = sim.now
        self.packets_offered += 1
        if self.arrival_trace is not None:
            self.arrival_trace.record(pkt, now)
        if not self.is_up:
            self.packets_dropped_down += 1
            if self.drop_trace is not None:
                self.drop_trace.record(pkt, now, marked=False)
            sim.free_packet(pkt)
            return _DROPPED
        if not self.busy and not self.queue:
            # Transmission/delivery timers are never cancelled: slot-free path.
            self.busy = True
            tx_time = pkt.size * 8.0 / self.rate_bps
            if self.max_noise:
                tx_time += float(self.rng.random()) * self.max_noise
            self.busy_time += tx_time
            schedule_fast(sim, tx_time, self._transmission_done, pkt)
            return _ENQUEUED
        result = self.queue.push(pkt, now)
        if result is _DROPPED:
            if self.drop_trace is not None:
                self.drop_trace.record(pkt, now, marked=False)
            # The link is the dropped packet's terminal consumer: recycle it.
            sim.free_packet(pkt)
        elif result is _MARKED:
            if self.drop_trace is not None:
                self.drop_trace.record(pkt, now, marked=True)
        return result

    # ------------------------------------------------------------------
    def _transmission_done(self, pkt: Packet) -> None:
        # The delivery is scheduled before the next transmission: the two
        # sequence numbers order same-time events, so they must not swap.
        sim = self.sim
        self.bytes_forwarded += pkt.size
        self.packets_forwarded += 1
        delay = self.delay
        if self.reorder_prob and self.rng.random() < self.reorder_prob:
            delay += self.extra_delay
            self.reordered += 1
        schedule_fast(sim, delay, self.dst.receive, pkt, self)
        nxt = self.queue.pop(sim.now)
        if nxt is not None:
            tx_time = nxt.size * 8.0 / self.rate_bps
            if self.max_noise:
                tx_time += float(self.rng.random()) * self.max_noise
            self.busy_time += tx_time
            schedule_fast(sim, tx_time, self._transmission_done, nxt)
        else:
            self.busy = False

    # ------------------------------------------------------------------
    def take_down(self) -> None:
        """Fault injection: the link stops accepting packets.

        Packets already transmitting or queued continue to drain (the far
        end of a cut fiber still receives bits in flight); every *new*
        offer is dropped and counted in ``packets_dropped_down``.
        Idempotent.
        """
        if self.is_up:
            self.is_up = False
            self.flap_count += 1
            if self.registry is not None:
                self.registry.counter(f"link.{self.name}.flaps").inc()

    def bring_up(self) -> None:
        """Fault injection: the link accepts packets again.  Idempotent."""
        self.is_up = True

    # ------------------------------------------------------------------
    def utilization(self, duration: float) -> float:
        """Fraction of ``duration`` the transmitter was busy.

        Returns the *raw* busy-time ratio.  A value above 1.0 means the
        link's busy-time accounting over-counted — a conservation bug the
        invariant layer should surface, never something to clamp away —
        so overruns are counted and reported as a metrics warning.  (Busy
        time is booked at transmission start, so a run cut off mid-packet
        can legitimately read one packet's tx time above 1.0; anything
        beyond that is an accounting error.)
        """
        if duration <= 0:
            raise ValueError("duration must be positive")
        ratio = self.busy_time / duration
        if ratio > 1.0:
            self.utilization_overruns += 1
            if self.registry is not None:
                self.registry.counter(f"link.{self.name}.utilization_overruns").inc()
                self.registry.warn(
                    f"link {self.name}: utilization {ratio:.6f} exceeds 1.0 over "
                    f"{duration:.6f}s (busy_time={self.busy_time:.6f}s)"
                )
        return ratio

    def attach_metrics(self, registry: "MetricsRegistry") -> None:
        """Expose live link accounting as callback gauges in ``registry``."""
        self.registry = registry
        prefix = f"link.{self.name}"
        registry.gauge(f"{prefix}.packets_offered", fn=lambda: self.packets_offered)
        registry.gauge(f"{prefix}.packets_forwarded", fn=lambda: self.packets_forwarded)
        registry.gauge(f"{prefix}.bytes_forwarded", fn=lambda: self.bytes_forwarded)
        registry.gauge(f"{prefix}.busy_time", fn=lambda: self.busy_time)
        registry.gauge(
            f"{prefix}.packets_dropped_down", fn=lambda: self.packets_dropped_down
        )
        self.queue.attach_metrics(registry)

    def tx_time(self, size_bytes: int) -> float:
        """Transmission time for a packet of ``size_bytes``."""
        return size_bytes * 8.0 / self.rate_bps

    def __repr__(self) -> str:  # pragma: no cover
        return f"<TwoEventLink {self.name} ->{self.dst!r} {self.rate_bps/1e6:.1f}Mbps {self.delay*1e3:.1f}ms>"
