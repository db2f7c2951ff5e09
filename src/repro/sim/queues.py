"""Queue disciplines: DropTail, RED, CoDel, and FQ-CoDel.

The paper identifies the DropTail bottleneck as the primary source of
sub-RTT loss burstiness (§3.3): once the FIFO buffer fills, *every* arrival
is dropped until the senders back off roughly half an RTT later, producing
a dense cluster of drops.  RED spreads drops out by dropping probabilistically
as a function of the EWMA queue length; the repository's ablation benches
quantify how much burstiness RED removes (§5).  CoDel and FQ-CoDel are the
2012-era sequels (the "modern AQM zoo" the zoo-grid experiment sweeps):
they drop on *sojourn time* at dequeue, which changes both the burstiness
of the loss process and which flow classes sample it.

All disciplines share one interface so links and traces are agnostic:

``push(pkt, now)`` returns an :class:`EnqueueResult` — ``ENQUEUED``,
``DROPPED``, or ``MARKED`` (enqueued with the ECN congestion-experienced
codepoint set).  Disciplines that drop or mark at *dequeue* time (CoDel,
FQ-CoDel) report those outcomes through the ``head_drop_hook`` /
``mark_hook`` callbacks the owning :class:`~repro.sim.link.Link` installs,
and count them in ``dropped_head`` so the conservation identities stay
checkable: ``arrived == enqueued + dropped`` and
``enqueued == dequeued + dropped_head + occupancy``.

Disciplines are also exposed through a named factory
(:func:`make_queue` / :func:`register_queue` / :func:`queue_kinds`) so
experiment drivers resolve AQMs by string key — the queue half of the
protocol/AQM zoo registry.

Each discipline may additionally register a *fluid drop law*
(:func:`register_fluid_law` / :func:`make_fluid_law`): the deterministic
drop-probability coupling the mean-field backend
(:mod:`repro.sim.fluid`) integrates instead of per-packet coin flips.
DropTail and RED have laws (RED's reuses the exact
:func:`red_drop_probability` ramp the packet queue samples); sojourn-time
disciplines (CoDel, FQ-CoDel) have no mean-field reduction here and
raise :class:`FluidNotSupported` with the supported alternatives listed.
"""

from __future__ import annotations

import enum
import math
from collections import deque
from itertools import chain
from typing import TYPE_CHECKING, Callable, Optional

import numpy as np

from repro.sim.packet import Packet

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.obs.metrics import MetricsRegistry

__all__ = [
    "EnqueueResult",
    "Queue",
    "DropTailQueue",
    "REDQueue",
    "REDParams",
    "CoDelParams",
    "CoDelQueue",
    "FqCoDelQueue",
    "make_queue",
    "register_queue",
    "queue_kinds",
    "red_drop_probability",
    "FluidNotSupported",
    "FluidQueueLaw",
    "DropTailFluidLaw",
    "RedFluidLaw",
    "register_fluid_law",
    "make_fluid_law",
    "fluid_law_kinds",
]


class EnqueueResult(enum.Enum):
    """Outcome of offering a packet to a queue."""

    ENQUEUED = "enqueued"
    DROPPED = "dropped"
    MARKED = "marked"  # enqueued, ECN congestion-experienced set


_ENQUEUED = EnqueueResult.ENQUEUED
_DROPPED = EnqueueResult.DROPPED


class Queue:
    """Abstract FIFO buffer with a capacity in packets and, optionally,
    bytes.

    Capacity is in packets by default (the NS-2 convention the paper's
    scenarios use: buffer sizes are quoted in fractions of the
    bandwidth-delay product measured in packets).  Pass ``capacity_bytes``
    for a byte-limited buffer (real routers limit memory, not slots); when
    both are set the stricter one applies.
    """

    def __init__(
        self,
        capacity_pkts: int,
        name: str = "queue",
        capacity_bytes: Optional[int] = None,
    ):
        if capacity_pkts < 1:
            raise ValueError(f"queue capacity must be >= 1 packet, got {capacity_pkts}")
        if capacity_bytes is not None and capacity_bytes < 1:
            raise ValueError(f"byte capacity must be >= 1, got {capacity_bytes}")
        self.capacity = int(capacity_pkts)
        self.capacity_bytes = None if capacity_bytes is None else int(capacity_bytes)
        self.name = name
        self._q: deque[Packet] = deque()
        self.bytes = 0
        # Counters for conservation checks: arrived == enqueued + dropped,
        # enqueued == dequeued + len(queue).
        self.arrived = 0
        self.enqueued = 0
        self.dequeued = 0
        self.dropped = 0
        #: Packets dropped at *dequeue* time after having been enqueued
        #: (CoDel's sojourn drops, FQ-CoDel's fat-flow evictions).  Kept
        #: separate from ``dropped`` so ``arrived == enqueued + dropped``
        #: stays an arrival-side identity for every discipline.
        self.dropped_head = 0
        self.marked = 0
        #: Terminal consumer for head-dropped packets: the owning Link
        #: installs a callback that records the drop trace entry and
        #: recycles the packet.  ``None`` means the queue discards silently.
        self.head_drop_hook: Optional[Callable[[Packet, float], None]] = None
        #: Observer for dequeue-time ECN marks (CoDel with ``ecn=True``):
        #: the packet is still delivered, but the mark needs a trace entry.
        self.mark_hook: Optional[Callable[[Packet, float], None]] = None
        #: High-water mark of the instantaneous occupancy (packets); the
        #: telemetry/report layer uses it to tell "buffer never filled"
        #: from "buffer sat full" without sampling every enqueue.
        self.peak_occupancy = 0

    def _fits(self, pkt: Packet) -> bool:
        if len(self._q) >= self.capacity:
            return False
        if self.capacity_bytes is not None and self.bytes + pkt.size > self.capacity_bytes:
            return False
        return True

    # -- interface ------------------------------------------------------
    def push(self, pkt: Packet, now: float) -> EnqueueResult:
        """Offer a packet to the buffer; returns the enqueue outcome."""
        raise NotImplementedError

    def pop(self, now: float) -> Optional[Packet]:
        """Remove and return the head-of-line packet (None when empty)."""
        if not self._q:
            return None
        pkt = self._q.popleft()
        self.bytes -= pkt.size
        self.dequeued += 1
        return pkt

    def __len__(self) -> int:
        return len(self._q)

    def __bool__(self) -> bool:
        return bool(self._q)

    @property
    def dropped_total(self) -> int:
        """All losses this queue inflicted: push-time plus dequeue-time."""
        return self.dropped + self.dropped_head

    # -- shared helpers ---------------------------------------------------
    def _accept(self, pkt: Packet) -> None:
        self._q.append(pkt)
        self.bytes += pkt.size
        self.enqueued += 1
        if len(self._q) > self.peak_occupancy:
            self.peak_occupancy = len(self._q)

    # -- observability ----------------------------------------------------
    def attach_metrics(self, registry: "MetricsRegistry") -> None:
        """Expose live conservation counters as callback gauges in
        ``registry`` under ``queue.<name>.*``."""
        prefix = f"queue.{self.name}"
        registry.gauge(f"{prefix}.arrived", fn=lambda: self.arrived)
        registry.gauge(f"{prefix}.enqueued", fn=lambda: self.enqueued)
        registry.gauge(f"{prefix}.dequeued", fn=lambda: self.dequeued)
        registry.gauge(f"{prefix}.dropped", fn=lambda: self.dropped)
        registry.gauge(f"{prefix}.dropped_head", fn=lambda: self.dropped_head)
        registry.gauge(f"{prefix}.marked", fn=lambda: self.marked)
        registry.gauge(f"{prefix}.occupancy", fn=lambda: len(self))
        registry.gauge(f"{prefix}.peak_occupancy", fn=lambda: self.peak_occupancy)
        registry.gauge(f"{prefix}.bytes", fn=lambda: self.bytes)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<{type(self).__name__} {self.name} {len(self._q)}/{self.capacity} pkts "
            f"dropped={self.dropped}>"
        )


class DropTailQueue(Queue):
    """Plain FIFO: accept until full, then drop every arrival."""

    def push(self, pkt: Packet, now: float) -> EnqueueResult:
        """Offer a packet to the buffer; returns the enqueue outcome."""
        # Queue._fits and Queue._accept spelled inline: this push runs
        # once per packet per busy hop.
        self.arrived += 1
        q = self._q
        n = len(q)
        if n >= self.capacity or (
                self.capacity_bytes is not None
                and self.bytes + pkt.size > self.capacity_bytes):
            self.dropped += 1
            return _DROPPED
        q.append(pkt)
        self.bytes += pkt.size
        self.enqueued += 1
        if n >= self.peak_occupancy:
            self.peak_occupancy = n + 1
        return _ENQUEUED


class REDParams:
    """Random Early Detection parameters (Floyd & Jacobson 1993).

    Defaults follow the classic recommendations: ``min_th`` = 5 packets,
    ``max_th`` = 3 * ``min_th``, ``weight`` = 0.002, ``max_p`` = 0.1.  The
    paper's §5 caveat — "the parameter tunings of RED are difficult" — is
    exactly why these are explicit and swept by the ablation bench.
    """

    __slots__ = ("min_th", "max_th", "weight", "max_p", "ecn", "gentle")

    def __init__(
        self,
        min_th: float = 5.0,
        max_th: float = 15.0,
        weight: float = 0.002,
        max_p: float = 0.1,
        ecn: bool = False,
        gentle: bool = True,
    ):
        if not (0 < min_th < max_th):
            raise ValueError(f"need 0 < min_th < max_th, got {min_th}, {max_th}")
        if not (0 < weight <= 1):
            raise ValueError(f"EWMA weight must be in (0, 1], got {weight}")
        if not (0 < max_p <= 1):
            raise ValueError(f"max_p must be in (0, 1], got {max_p}")
        self.min_th = float(min_th)
        self.max_th = float(max_th)
        self.weight = float(weight)
        self.max_p = float(max_p)
        self.ecn = bool(ecn)
        self.gentle = bool(gentle)


def red_drop_probability(avg: float, params: REDParams) -> float:
    """The RED early-action probability ``p_b`` for an average queue
    length ``avg`` (Floyd & Jacobson's linear ramp, plus the "gentle"
    extension).  Shared verbatim by the packet queue's per-arrival coin
    flip (:meth:`REDQueue.push`) and the fluid backend's deterministic
    drop-rate coupling (:class:`RedFluidLaw`), so the two backends
    integrate the *same* control law."""
    if avg < params.min_th:
        return 0.0
    if avg < params.max_th:
        return params.max_p * (avg - params.min_th) / (params.max_th - params.min_th)
    if params.gentle and avg < 2.0 * params.max_th:
        return params.max_p + (1.0 - params.max_p) * (avg - params.max_th) / params.max_th
    return 1.0


class REDQueue(Queue):
    """Random Early Detection gateway.

    Implements the original algorithm: an EWMA of the instantaneous queue
    length (with the idle-period correction), early drop/mark probability
    ramping linearly from 0 at ``min_th`` to ``max_p`` at ``max_th``, the
    ``1/(1 - count * p_b)`` inter-drop spreading, and (optionally) the
    "gentle" extension ramping from ``max_p`` to 1 between ``max_th`` and
    ``2 * max_th``.

    With ``params.ecn`` set, early notifications *mark* ECN-capable packets
    instead of dropping them (hard overflow still drops).
    """

    def __init__(
        self,
        capacity_pkts: int,
        params: Optional[REDParams] = None,
        rng: Optional[np.random.Generator] = None,
        mean_pkt_size: int = 1000,
        service_rate_pps: float = 0.0,
        name: str = "red",
    ):
        super().__init__(capacity_pkts, name=name)
        self.params = params or REDParams()
        self.rng = rng if rng is not None else np.random.default_rng(0)
        self.avg = 0.0
        self._count = -1  # packets since last early drop/mark
        self._idle_since: Optional[float] = 0.0
        # Estimated service rate (packets/sec) for the idle-time correction;
        # 0 disables the correction.
        self.service_rate_pps = float(service_rate_pps)
        self.mean_pkt_size = int(mean_pkt_size)

    # -- EWMA -------------------------------------------------------------
    def _update_avg(self, now: float) -> None:
        q = len(self._q)
        w = self.params.weight
        if q == 0 and self._idle_since is not None and self.service_rate_pps > 0:
            # Queue has been idle: decay the average as if m small packets
            # had been serviced during the idle period.
            m = max(0.0, (now - self._idle_since) * self.service_rate_pps)
            self.avg *= (1.0 - w) ** m
            self.avg += w * q  # q == 0 here; kept for symmetry
        else:
            self.avg = (1.0 - w) * self.avg + w * q

    def _early_probability(self) -> float:
        return red_drop_probability(self.avg, self.params)

    # -- interface ----------------------------------------------------------
    def push(self, pkt: Packet, now: float) -> EnqueueResult:
        """Offer a packet to the buffer; returns the enqueue outcome."""
        self.arrived += 1
        self._update_avg(now)
        self._idle_since = None

        if not self._fits(pkt):
            # Hard overflow: behaves like DropTail regardless of the average.
            self.dropped += 1
            self._count = 0
            return EnqueueResult.DROPPED

        p_b = self._early_probability()
        if p_b > 0.0:
            self._count += 1
            if p_b >= 1.0:
                take = True
            else:
                # Spread early actions out: with count packets since the last
                # action, act with probability p_b / (1 - count * p_b).
                denom = 1.0 - self._count * p_b
                p_a = 1.0 if denom <= 0 else min(1.0, p_b / denom)
                take = bool(self.rng.random() < p_a)
            if take:
                self._count = 0
                if self.params.ecn and pkt.ecn_capable and self.avg < self.params.max_th:
                    pkt.ecn_marked = True
                    self.marked += 1
                    self._accept(pkt)
                    return EnqueueResult.MARKED
                self.dropped += 1
                return EnqueueResult.DROPPED
        else:
            self._count = -1

        self._accept(pkt)
        return EnqueueResult.ENQUEUED

    def pop(self, now: float) -> Optional[Packet]:
        """Remove and return the head-of-line packet (None when empty)."""
        pkt = super().pop(now)
        if pkt is not None and not self._q:
            self._idle_since = now
        return pkt


# ---------------------------------------------------------------------------
# CoDel (Nichols & Jacobson 2012) and FQ-CoDel (RFC 8290)
# ---------------------------------------------------------------------------


class CoDelParams:
    """Controlled-Delay AQM parameters.

    ``target`` is the acceptable standing sojourn time (5 ms), ``interval``
    the window over which it must be exceeded before dropping starts
    (100 ms, a worst-case RTT).  With ``ecn`` set, sojourn violations mark
    ECN-capable packets instead of dropping them.
    """

    __slots__ = ("target", "interval", "ecn")

    def __init__(self, target: float = 0.005, interval: float = 0.100,
                 ecn: bool = False):
        if target <= 0:
            raise ValueError(f"target must be positive, got {target}")
        if interval <= 0:
            raise ValueError(f"interval must be positive, got {interval}")
        self.target = float(target)
        self.interval = float(interval)
        self.ecn = bool(ecn)


class _CoDelLaw:
    """The CoDel control-law state machine, shared by :class:`CoDelQueue`
    and each FQ-CoDel bucket.

    ``dequeue(now, pull, backlog, consume)`` implements the ACM Queue
    pseudocode: ``pull()`` removes and returns ``(pkt, enqueue_time)`` or
    ``None``; ``backlog()`` is the owner's byte backlog (no dropping below
    one max-size packet); ``consume(pkt, now)`` disposes of a
    sojourn-dropped packet (accounting + hooks live with the owner).
    Returns the packet to deliver (possibly ECN-marked) or ``None``.
    """

    __slots__ = ("first_above", "dropping", "drop_next", "count",
                 "last_sojourn", "maxpacket", "params", "_mark")

    def __init__(self, params: CoDelParams,
                 mark: Callable[[Packet, float], bool]):
        self.params = params
        self.first_above = 0.0
        self.dropping = False
        self.drop_next = 0.0
        self.count = 0
        self.last_sojourn = 0.0
        self.maxpacket = 0
        self._mark = mark

    def _dodequeue(self, now, pull, backlog):
        """Returns ``(pkt, ok_to_drop)``; updates the first-above clock."""
        item = pull()
        if item is None:
            self.first_above = 0.0
            return None, False
        pkt, enq = item
        sojourn = now - enq
        self.last_sojourn = sojourn
        p = self.params
        if sojourn < p.target or backlog() < self.maxpacket:
            self.first_above = 0.0
            return pkt, False
        if self.first_above == 0.0:
            self.first_above = now + p.interval
            return pkt, False
        return pkt, now >= self.first_above

    def dequeue(self, now, pull, backlog, consume):
        interval = self.params.interval
        pkt, ok = self._dodequeue(now, pull, backlog)
        if pkt is None:
            self.dropping = False
            return None
        if self.dropping:
            if not ok:
                self.dropping = False
            else:
                while self.dropping and now >= self.drop_next:
                    self.count += 1
                    if self._mark(pkt, now):
                        # ECN: deliver the marked packet; the control law
                        # advances exactly as if it had been dropped.
                        self.drop_next += interval / math.sqrt(self.count)
                        break
                    consume(pkt, now)
                    pkt, ok = self._dodequeue(now, pull, backlog)
                    if pkt is None:
                        self.dropping = False
                        break
                    if not ok:
                        self.dropping = False
                    else:
                        self.drop_next += interval / math.sqrt(self.count)
        elif ok:
            # Enter the dropping state: one immediate drop (or mark), then
            # the count-controlled schedule, resumed near the prior rate if
            # we left the state recently.
            if not self._mark(pkt, now):
                consume(pkt, now)
                pkt, _ = self._dodequeue(now, pull, backlog)
            self.dropping = True
            if self.count > 2 and now - self.drop_next < 16.0 * interval:
                self.count -= 2
            else:
                self.count = 1
            self.drop_next = now + interval / math.sqrt(self.count)
        return pkt


class CoDelQueue(Queue):
    """Controlled-Delay queue: drop (or ECN-mark) on standing sojourn time.

    Arrivals are only dropped on hard overflow (``capacity_pkts`` /
    ``capacity_bytes``), like DropTail; congestion control happens at
    *dequeue*, where packets whose sojourn exceeded ``target`` for at
    least one ``interval`` are dropped on the ``1/sqrt(count)`` schedule.
    Dequeue drops are counted in ``dropped_head`` and reported through
    ``head_drop_hook`` (the Link installs the trace/recycle consumer).
    """

    def __init__(
        self,
        capacity_pkts: int,
        params: Optional[CoDelParams] = None,
        name: str = "codel",
        capacity_bytes: Optional[int] = None,
    ):
        super().__init__(capacity_pkts, name=name, capacity_bytes=capacity_bytes)
        self.params = params or CoDelParams()
        self._enq_times: deque[float] = deque()
        self._law = _CoDelLaw(self.params, self._try_mark)
        # Sojourn statistics over *delivered* packets (tests + telemetry).
        self.sojourn_sum = 0.0
        self.sojourn_peak = 0.0

    @property
    def last_sojourn(self) -> float:
        """Sojourn time of the most recently examined head packet."""
        return self._law.last_sojourn

    # -- interface ------------------------------------------------------
    def push(self, pkt: Packet, now: float) -> EnqueueResult:
        """Offer a packet to the buffer; returns the enqueue outcome."""
        self.arrived += 1
        if not self._fits(pkt):
            self.dropped += 1
            return EnqueueResult.DROPPED
        if pkt.size > self._law.maxpacket:
            self._law.maxpacket = pkt.size
        self._accept(pkt)
        self._enq_times.append(now)
        return EnqueueResult.ENQUEUED

    def _pull(self):
        if not self._q:
            return None
        pkt = self._q.popleft()
        self.bytes -= pkt.size
        return pkt, self._enq_times.popleft()

    def _consume(self, pkt: Packet, now: float) -> None:
        self.dropped_head += 1
        if self.head_drop_hook is not None:
            self.head_drop_hook(pkt, now)

    def _try_mark(self, pkt: Packet, now: float) -> bool:
        if self.params.ecn and pkt.ecn_capable:
            pkt.ecn_marked = True
            self.marked += 1
            if self.mark_hook is not None:
                self.mark_hook(pkt, now)
            return True
        return False

    def pop(self, now: float) -> Optional[Packet]:
        """Remove and return the head-of-line packet (None when empty),
        applying the CoDel control law first."""
        pkt = self._law.dequeue(now, self._pull, lambda: self.bytes,
                                self._consume)
        if pkt is not None:
            self.dequeued += 1
            s = self._law.last_sojourn
            self.sojourn_sum += s
            if s > self.sojourn_peak:
                self.sojourn_peak = s
        return pkt


class _FqBucket:
    """One FQ-CoDel flow bucket: its backlog, DRR deficit, CoDel state."""

    __slots__ = ("index", "q", "byte_backlog", "deficit", "law", "active")

    def __init__(self, index: int, params: CoDelParams, mark):
        self.index = index
        self.q: deque[tuple[Packet, float]] = deque()
        self.byte_backlog = 0
        self.deficit = 0
        self.law = _CoDelLaw(params, mark)
        self.active = False

    def pull(self):
        if not self.q:
            return None
        pkt, enq = self.q.popleft()
        self.byte_backlog -= pkt.size
        return pkt, enq


class FqCoDelQueue(Queue):
    """Flow-queueing CoDel (RFC 8290).

    Packets hash by ``flow_id`` into ``n_buckets`` sub-queues, each
    running its own CoDel law; a deficit-round-robin scheduler with
    ``quantum`` bytes per visit serves them, giving new (thin) flows
    scheduling priority.  On overflow the *fattest* bucket's head is
    evicted — so an aggressive flow's backlog, not the arriving packet,
    pays for the shared buffer.  Fattest means the largest byte backlog,
    the lowest bucket index among equals; only the buckets on the DRR
    lists are compared (the others are empty).  Evictions and sojourn
    drops both count in ``dropped_head`` (they removed packets that were
    enqueued).
    """

    def __init__(
        self,
        capacity_pkts: int,
        params: Optional[CoDelParams] = None,
        n_buckets: int = 64,
        quantum: int = 1514,
        name: str = "fq-codel",
    ):
        super().__init__(capacity_pkts, name=name)
        if n_buckets < 1:
            raise ValueError(f"n_buckets must be >= 1, got {n_buckets}")
        if quantum < 1:
            raise ValueError(f"quantum must be >= 1 byte, got {quantum}")
        self.params = params or CoDelParams()
        self.n_buckets = int(n_buckets)
        self.quantum = int(quantum)
        self._buckets = [_FqBucket(i, self.params, self._try_mark)
                         for i in range(self.n_buckets)]
        self._new: deque[_FqBucket] = deque()
        self._old: deque[_FqBucket] = deque()
        self._occupancy = 0

    def __len__(self) -> int:
        return self._occupancy

    def __bool__(self) -> bool:
        return self._occupancy > 0

    # -- interface ------------------------------------------------------
    def push(self, pkt: Packet, now: float) -> EnqueueResult:
        """Offer a packet to the buffer; returns the enqueue outcome.

        Always enqueues; when over capacity the longest bucket is then
        shortened from the head (``dropped_head``), which usually punishes
        a different flow than the one that arrived.
        """
        self.arrived += 1
        b = self._buckets[pkt.flow_id % self.n_buckets]
        if pkt.size > b.law.maxpacket:
            b.law.maxpacket = pkt.size
        b.q.append((pkt, now))
        b.byte_backlog += pkt.size
        self.bytes += pkt.size
        self._occupancy += 1
        self.enqueued += 1
        if self._occupancy > self.peak_occupancy:
            self.peak_occupancy = self._occupancy
        if not b.active:
            b.active = True
            b.deficit = self.quantum
            self._new.append(b)
        if self._occupancy > self.capacity:
            self._evict_from_fattest(now)
        return EnqueueResult.ENQUEUED

    def _evict_from_fattest(self, now: float) -> None:
        # An inactive bucket is empty, so the fattest active bucket is the
        # fattest overall; DRR list order is arbitrary, hence the index.
        fat = None
        for b in chain(self._new, self._old):
            if fat is None or b.byte_backlog > fat.byte_backlog or (
                    b.byte_backlog == fat.byte_backlog and b.index < fat.index):
                fat = b
        item = fat.pull()
        if item is None:  # pragma: no cover - occupancy > 0 implies a head
            return
        pkt, _ = item
        self.bytes -= pkt.size
        self._occupancy -= 1
        self.dropped_head += 1
        if self.head_drop_hook is not None:
            self.head_drop_hook(pkt, now)

    def _try_mark(self, pkt: Packet, now: float) -> bool:
        if self.params.ecn and pkt.ecn_capable:
            pkt.ecn_marked = True
            self.marked += 1
            if self.mark_hook is not None:
                self.mark_hook(pkt, now)
            return True
        return False

    def _bucket_consume(self, pkt: Packet, now: float) -> None:
        self._occupancy -= 1
        self.bytes -= pkt.size
        self.dropped_head += 1
        if self.head_drop_hook is not None:
            self.head_drop_hook(pkt, now)

    def pop(self, now: float) -> Optional[Packet]:
        """DRR scheduling over the buckets, CoDel law per bucket."""
        while True:
            if self._new:
                lst = self._new
            elif self._old:
                lst = self._old
            else:
                return None
            b = lst[0]
            if b.deficit <= 0:
                b.deficit += self.quantum
                lst.popleft()
                self._old.append(b)
                continue
            pkt = b.law.dequeue(now, b.pull,
                                lambda b=b: b.byte_backlog,
                                self._bucket_consume)
            if pkt is None:
                # Bucket drained: a new bucket gets one pass through the
                # old list (RFC 8290 §4.2); an old bucket deactivates.
                lst.popleft()
                if lst is self._new:
                    self._old.append(b)
                else:
                    b.active = False
                continue
            b.deficit -= pkt.size
            self._occupancy -= 1
            self.bytes -= pkt.size
            self.dequeued += 1
            return pkt


# ---------------------------------------------------------------------------
# Named queue factory — the AQM half of the protocol/AQM zoo registry
# ---------------------------------------------------------------------------

#: kind -> factory(capacity_pkts, *, rng, name, service_rate_pps, **kwargs).
_QUEUE_REGISTRY: dict[str, Callable[..., Queue]] = {}


def register_queue(kind: str):
    """Decorator: register a queue factory under a string key.

    The factory signature is ``factory(capacity_pkts, *, rng=None,
    name="...", service_rate_pps=0.0, **kwargs) -> Queue``; factories
    ignore the keywords they have no use for.  Registering an existing
    kind replaces it (extensions may refine a core discipline).
    """

    def deco(factory: Callable[..., Queue]):
        _QUEUE_REGISTRY[kind] = factory
        return factory

    return deco


def queue_kinds() -> tuple[str, ...]:
    """Registered AQM kind keys, sorted."""
    return tuple(sorted(_QUEUE_REGISTRY))


def make_queue(
    kind: str,
    capacity_pkts: int,
    *,
    rng: Optional[np.random.Generator] = None,
    name: Optional[str] = None,
    service_rate_pps: float = 0.0,
    **kwargs,
) -> Queue:
    """Build a queue discipline by registry key.

    ``rng`` feeds probabilistic disciplines (RED); ``service_rate_pps``
    feeds idle-decay corrections; both are ignored by disciplines that
    have no use for them, so drivers can pass everything uniformly.
    """
    try:
        factory = _QUEUE_REGISTRY[kind]
    except KeyError:
        raise ValueError(
            f"unknown queue kind {kind!r}; registered: {', '.join(queue_kinds())}"
        ) from None
    return factory(
        capacity_pkts,
        rng=rng,
        name=name if name is not None else kind,
        service_rate_pps=service_rate_pps,
        **kwargs,
    )


@register_queue("droptail")
def _make_droptail(capacity_pkts, *, rng=None, name="droptail",
                   service_rate_pps=0.0, **kwargs) -> DropTailQueue:
    return DropTailQueue(capacity_pkts, name=name, **kwargs)


@register_queue("red")
def _make_red(capacity_pkts, *, rng=None, name="red", service_rate_pps=0.0,
              params: Optional[REDParams] = None, **kwargs) -> REDQueue:
    return REDQueue(capacity_pkts, params=params, rng=rng, name=name,
                    service_rate_pps=service_rate_pps, **kwargs)


@register_queue("codel")
def _make_codel(capacity_pkts, *, rng=None, name="codel",
                service_rate_pps=0.0, params: Optional[CoDelParams] = None,
                **kwargs) -> CoDelQueue:
    return CoDelQueue(capacity_pkts, params=params, name=name, **kwargs)


@register_queue("fq-codel")
def _make_fq_codel(capacity_pkts, *, rng=None, name="fq-codel",
                   service_rate_pps=0.0, params: Optional[CoDelParams] = None,
                   **kwargs) -> FqCoDelQueue:
    return FqCoDelQueue(capacity_pkts, params=params, name=name, **kwargs)


# ---------------------------------------------------------------------------
# Fluid drop laws — the queue half of the mean-field backend
# ---------------------------------------------------------------------------


class FluidNotSupported(NotImplementedError):
    """A scenario component has no mean-field reduction.

    Raised with an explicit message naming the unsupported component and
    the supported alternatives, so ``backend="fluid"`` failures are
    diagnosable from the exception text alone (the drivers surface it
    verbatim rather than degrading silently).
    """


class FluidQueueLaw:
    """Deterministic drop-probability coupling of one AQM kind.

    The fluid backend (:mod:`repro.sim.fluid`) integrates a shared
    queue-occupancy ODE; once per step it asks the law for the *early*
    (pre-enqueue) drop probability given the instantaneous occupancy and
    aggregate arrival rate.  Hard overflow above ``capacity_pkts`` is
    handled by the queue ODE's clamp for every law, exactly as
    :meth:`Queue._fits` backstops every packet discipline.

    Laws are stateful (RED carries its EWMA average) and are reset per
    run; ``drop_probability`` is called exactly once per step in time
    order.
    """

    kind = "fluid"

    def __init__(self, capacity_pkts: int, service_rate_pps: float):
        if capacity_pkts < 1:
            raise ValueError(f"queue capacity must be >= 1 packet, got {capacity_pkts}")
        if service_rate_pps <= 0:
            raise ValueError(f"service rate must be positive, got {service_rate_pps}")
        self.capacity = int(capacity_pkts)
        self.service_rate_pps = float(service_rate_pps)

    def reset(self) -> None:
        """Clear per-run state (called by the fluid engine before t=0)."""

    def drop_probability(self, q: float, arrival_rate_pps: float,
                         dt: float) -> float:
        """Early drop probability for arrivals during the next ``dt``."""
        raise NotImplementedError


class DropTailFluidLaw(FluidQueueLaw):
    """DropTail's mean-field law: no early drops, ever.

    All loss comes from the queue ODE saturating at ``capacity`` — the
    fluid analogue of "once the FIFO fills, every arrival is dropped
    until the senders back off" (§3.3), and the source of the
    synchronized loss *episodes* the convergence suite counts.
    """

    kind = "droptail"

    def drop_probability(self, q: float, arrival_rate_pps: float,
                         dt: float) -> float:
        """Early drop probability for arrivals during the next ``dt``."""
        return 0.0


class RedFluidLaw(FluidQueueLaw):
    """RED's mean-field law (McDonald–Reynier's coupling).

    Evolves the same EWMA average the packet queue keeps — the
    per-arrival update ``avg <- (1-w)*avg + w*q`` applied ``A*dt`` times
    has the closed form ``q + (avg-q)*(1-w)**(A*dt)`` — and maps it
    through the exact :func:`red_drop_probability` ramp.  The packet
    queue's ``1/(1 - count*p_b)`` inter-drop spreading shapes *when*
    drops land, not their mean rate, so the mean-field rate is ``p_b``
    itself.
    """

    kind = "red"

    def __init__(self, capacity_pkts: int, service_rate_pps: float,
                 params: Optional[REDParams] = None):
        super().__init__(capacity_pkts, service_rate_pps)
        self.params = params or REDParams()
        self.avg = 0.0

    def reset(self) -> None:
        """Clear per-run state (called by the fluid engine before t=0)."""
        self.avg = 0.0

    def drop_probability(self, q: float, arrival_rate_pps: float,
                         dt: float) -> float:
        """Early drop probability for arrivals during the next ``dt``."""
        m = arrival_rate_pps * dt
        if m > 0.0:
            self.avg = q + (self.avg - q) * (1.0 - self.params.weight) ** m
        return red_drop_probability(self.avg, self.params)


#: kind -> factory(capacity_pkts, *, service_rate_pps, **kwargs).
_FLUID_LAW_REGISTRY: dict[str, Callable[..., FluidQueueLaw]] = {}


def register_fluid_law(kind: str):
    """Decorator: register a fluid drop law under a queue-kind key."""

    def deco(factory: Callable[..., FluidQueueLaw]):
        _FLUID_LAW_REGISTRY[kind] = factory
        return factory

    return deco


def fluid_law_kinds() -> tuple[str, ...]:
    """Queue kinds with a registered fluid drop law, sorted."""
    return tuple(sorted(_FLUID_LAW_REGISTRY))


def make_fluid_law(
    kind: str,
    capacity_pkts: int,
    *,
    service_rate_pps: float,
    **kwargs,
) -> FluidQueueLaw:
    """Build the fluid drop law for a registered queue kind.

    Unknown kinds raise ``ValueError`` (same contract as
    :func:`make_queue`); known kinds without a mean-field reduction
    raise :class:`FluidNotSupported` naming the supported set.
    """
    if kind not in _QUEUE_REGISTRY:
        raise ValueError(
            f"unknown queue kind {kind!r}; registered: {', '.join(queue_kinds())}"
        )
    try:
        factory = _FLUID_LAW_REGISTRY[kind]
    except KeyError:
        raise FluidNotSupported(
            f"queue kind {kind!r} has no fluid drop law (sojourn-time "
            "control has no mean-field reduction here); fluid-supported "
            f"kinds: {', '.join(fluid_law_kinds())}"
        ) from None
    return factory(capacity_pkts, service_rate_pps=service_rate_pps, **kwargs)


@register_fluid_law("droptail")
def _make_droptail_law(capacity_pkts, *, service_rate_pps,
                       **kwargs) -> DropTailFluidLaw:
    return DropTailFluidLaw(capacity_pkts, service_rate_pps)


@register_fluid_law("red")
def _make_red_law(capacity_pkts, *, service_rate_pps,
                  params: Optional[REDParams] = None,
                  **kwargs) -> RedFluidLaw:
    return RedFluidLaw(capacity_pkts, service_rate_pps, params=params)
