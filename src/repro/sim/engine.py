"""Event scheduler for the discrete-event network simulator.

The engine is a hierarchical timer wheel in front of a binary-heap
overflow, with two hot-path refinements carried over from the pure-heap
engine (see ``docs/PERFORMANCE.md``):

* **Tuple-keyed entries.**  Pending events are plain tuples
  ``(time, seq, payload, ...)`` instead of ``Event`` objects, so every
  ordering comparison is a C-level tuple comparison; the scheduling
  sequence number is unique, which makes the ``(time, seq)`` prefix a
  total order and guarantees the payload slots are never compared.  This
  is the "precomputed sort key": it is built once at schedule time,
  never per comparison.
* **A slot-free fast path.**  :meth:`Simulator.schedule_fast` covers the
  dominant "delay from now, will never be cancelled" case (packet
  transmission/delivery timers) with no handle allocation at all, while
  :meth:`Simulator.schedule` keeps returning a cancellable
  :class:`Event` drawn from a per-simulator free list.

The **timer wheel** replaces per-event heap sifts for the near-future
timers that dominate ``schedule_fast`` traffic: an entry lands in an
unsorted bucket (O(1) append, no sift), level 0 spanning ~1 s at
~122 µs resolution and level 1 spanning ~256 s beyond it; anything
farther overflows to the binary heap.  When the dispatcher reaches a
bucket it sorts it once (C timsort over tuple keys) and **batch-
dequeues** the whole same-tick run through a cursor — no compare-and-
sift per event.  Ties still break by ``seq``: buckets hold the same
``(time, seq, ...)`` tuples, so a sorted bucket fires in exactly the
order the pure heap would have produced.  Set ``REPRO_WHEEL=0`` (or
``Simulator(use_wheel=False)``) to fall back to the pure-heap path.

``schedule_fast`` routes its two common cases itself, in one frame: a
timer inside the current level-0 span is appended to its bucket, and a
timer for a tick the wheel has already released — a packet transmission
is shorter than one tick, so on a dumbbell this is the *majority* of
calls (~55%) — is ``insort``-ed into the batch being drained, at or
after the cursor.  Only level-1, overflow and re-anchoring entries (and
every slotted ``schedule_at`` entry) take the general ``_push`` route.

Determinism matters for reproducing the paper's traces, so events
scheduled for the same timestamp are executed in scheduling order (the
monotonically increasing sequence number breaks ties — identically on
both the fast and the slotted path, which share one counter), and all
randomness lives in named RNG streams (:mod:`repro.sim.rng`), never in
the engine.  A reference implementation of the original, pre-optimization
engine is kept in :mod:`repro.sim.reference` as the benchmark baseline
and the oracle for scheduler-equivalence tests.
"""

from __future__ import annotations

import contextlib
import heapq
import math
import os
from bisect import insort
from time import perf_counter
from typing import TYPE_CHECKING, Any, Callable, Iterator, Optional

from repro.sim.packet import DATA, Packet

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids import cycle
    from repro.obs.metrics import MetricsRegistry
    from repro.obs.profiling import EventLoopProfile

__all__ = ["Event", "RepeatingEvent", "Simulator", "SimulationError"]

#: Compaction is skipped below this queue size: rebuilding a tiny queue
#: costs more bookkeeping than the cancelled corpses ever will.
COMPACT_MIN_HEAP = 64

#: Free-list bounds: pools never grow past these, so a burst of activity
#: cannot pin an unbounded amount of memory after it drains.
EVENT_POOL_MAX = 4096
PACKET_POOL_MAX = 4096

# Timer-wheel geometry.  Ticks are ``int(time * _TICK_HZ)`` with a
# power-of-two rate, so the scaling multiply is exact.  Level 0 holds the
# current ~1 s at one bucket per tick; level 1 holds the next ~256 s at
# one bucket per level-0 span ("group"); anything farther overflows to
# the binary heap.  Bucket choice never affects ordering — dispatch
# always orders by the ``(time, seq)`` tuple prefix — so resolution is a
# performance knob, not a semantic one.  The level-0 span is sized to
# cover WAN-RTT-scale timers (propagation deliveries up to hundreds of
# ms) on the inline ``schedule_fast`` route: with a 0.25 s span those
# mostly landed in level 1 and paid the cascade, which made the wheel a
# net loss on RTT-dominated scenarios.
_TICK_HZ = 8192.0  # 2**13 ticks/sec (~122 us per tick)
_W0_BITS = 13
_W0 = 1 << _W0_BITS  # 8192 level-0 buckets (~1 s span)
_W0_MASK = _W0 - 1
_W1 = 256  # level-1 groups (~256 s horizon)
_W1_MASK = _W1 - 1

_WHEEL_DEFAULT = os.environ.get("REPRO_WHEEL", "1") != "0"

_INF = math.inf


class SimulationError(RuntimeError):
    """Raised for invalid scheduler operations (e.g. scheduling in the past)."""


class Event:
    """A handle to a scheduled callback.

    Returned by :meth:`Simulator.schedule`; the only public operation is
    :meth:`cancel`, which is O(1) (the queue entry is left in place and
    skipped when dequeued, though the owning simulator compacts its
    queues once cancelled corpses outnumber live events).

    Handles are **single-use**: once the callback has fired (or the
    cancelled corpse has been discarded) the engine recycles the object
    through a free list, so a stale handle must not be cancelled after a
    *new* event has been scheduled — the standard discipline (followed by
    every timer in this repository) is to null the stored handle inside
    the callback.  Cancelling a handle that has fired but not yet been
    reused is a safe no-op.
    """

    __slots__ = ("time", "seq", "fn", "args", "cancelled", "owner")

    def __init__(self, time: float, seq: int, fn: Callable[..., Any], args: tuple):
        self.time = time
        self.seq = seq
        self.fn: Optional[Callable[..., Any]] = fn
        self.args = args
        self.cancelled = False
        # Owning simulator while the event sits in its queue; cleared on
        # dequeue so late cancels do not skew the in-queue cancel count.
        self.owner: Optional["Simulator"] = None

    def cancel(self) -> None:
        """Prevent the callback from running.  Idempotent."""
        if self.cancelled:
            return
        self.cancelled = True
        # Drop references so cancelled timers do not pin packets/agents.
        self.fn = None
        self.args = ()
        if self.owner is not None:
            self.owner._note_cancelled()

    def __lt__(self, other: "Event") -> bool:
        # Events are not queue-compared (the queues order tuples); this
        # stays for external code sorting handles by firing order.
        return (self.time, self.seq) < (other.time, other.seq)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "cancelled" if self.cancelled else "pending"
        return f"<Event t={self.time:.6f} seq={self.seq} {state}>"


class RepeatingEvent:
    """Handle to a self-rearming periodic callback (see
    :meth:`Simulator.schedule_every`).

    Firings are **anchored**: the k-th firing is scheduled at exactly
    ``t0 + k * interval`` (``t0`` = the clock when the recurrence was
    created), never at ``now + interval`` — re-arming off the drifting
    sum would accumulate one float rounding per firing, so a sampler's
    millionth timestamp would depend on the engine's dispatch history.
    Anchoring keeps telemetry sampler output byte-identical between the
    heap and wheel scheduling paths, and across engines.

    The underlying event re-arms itself after every firing *only while the
    simulator has other pending work*, so a recurring sampler or checker
    never keeps an otherwise-finished run alive.  :meth:`cancel` stops the
    recurrence permanently (idempotent).
    """

    __slots__ = ("sim", "interval", "fn", "args", "fires", "cancelled",
                 "_event", "_t0")

    def __init__(self, sim: "Simulator", interval: float, fn: Callable[..., Any], args: tuple):
        if interval <= 0:
            raise SimulationError(f"repeat interval must be positive, got {interval}")
        self.sim = sim
        self.interval = float(interval)
        self.fn = fn
        self.args = args
        self.fires = 0
        self.cancelled = False
        self._t0 = sim.now
        self._event: Optional[Event] = sim.schedule_at(
            self._t0 + self.interval, self._fire
        )

    def _fire(self) -> None:
        self._event = None
        if self.cancelled:
            return
        self.fires += 1
        self.fn(*self.args)
        # Re-arm only while other live events exist: once the scenario's
        # own work drains, the recurrence dies with it.
        if not self.cancelled and self.sim.pending > 0:
            t = self._t0 + (self.fires + 1) * self.interval
            now = self.sim.now
            self._event = self.sim.schedule_at(t if t > now else now, self._fire)

    def cancel(self) -> None:
        """Stop the recurrence.  Idempotent."""
        self.cancelled = True
        if self._event is not None:
            self._event.cancel()
            self._event = None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "cancelled" if self.cancelled else "armed"
        return f"<RepeatingEvent every={self.interval:.6f}s fires={self.fires} {state}>"


class Simulator:
    """Discrete-event simulator clock and event queue.

    Queue entries are 4-tuples.  ``(time, seq, fn, args)`` is a slot-free
    fast-path entry; ``(time, seq, event, None)`` carries a cancellable
    :class:`Event` (the ``None`` in the args slot is the discriminator).
    Both kinds share one sequence counter, so the ``(time, seq)`` prefix
    orders all entries exactly as the pre-optimization engine did.

    Entries live in one of four places, all ordered by the same key:

    * ``_due`` — the sorted batch currently being drained (a released
      wheel bucket), consumed through the ``_due_i`` cursor;
    * ``_w0`` — level-0 wheel buckets (one per tick, current ~1 s);
    * ``_w1`` — level-1 wheel buckets (one per level-0 span, next ~256 s);
    * ``_heap`` — binary-heap overflow for far timers, and the only
      queue when the wheel is disabled (``use_wheel=False`` /
      ``REPRO_WHEEL=0``).

    Example
    -------
    >>> sim = Simulator()
    >>> fired = []
    >>> _ = sim.schedule(1.5, fired.append, "a")
    >>> _ = sim.schedule(0.5, fired.append, "b")
    >>> sim.run()
    >>> fired
    ['b', 'a']
    """

    def __init__(self, use_wheel: Optional[bool] = None) -> None:
        self._heap: list[tuple] = []
        self._seq = 0
        self.now: float = 0.0
        self.events_processed: int = 0
        self._running = False
        # Cancelled events still sitting in the queues; kept exact so
        # ``pending`` is O(1) and compaction triggers deterministically.
        self._cancelled = 0
        self.compactions = 0
        #: Cancelled corpses popped off a queue (compaction sweeps are not
        #: pops); ``RunObservation`` and ``EventLoopProfile`` read deltas.
        self.cancelled_popped = 0
        self._profiler: Optional["EventLoopProfile"] = None
        self.metrics: Optional["MetricsRegistry"] = None
        # Timer wheel.  ``_pos`` is the last tick consumed (wheel entries
        # always have tick > _pos); ``_w0_group`` is the level-0 span
        # (tick >> _W0_BITS) the w0 buckets currently cover.  ``_w0`` is
        # None exactly when the wheel is disabled, so the hot path pays a
        # single identity check to pick its route.
        self.use_wheel = _WHEEL_DEFAULT if use_wheel is None else bool(use_wheel)
        self._w0: Optional[list[list]] = None
        self._w1: Optional[list[list]] = None
        self._w0_count = 0
        self._w1_count = 0
        self._pos = -1
        self._w0_group = 0
        self._due: list[tuple] = []
        self._due_i = 0
        if self.use_wheel:
            self._alloc_wheel()
        # Free lists (object pools).  Recycled Events come back through
        # the run loop; recycled Packets through free_packet() at their
        # terminal consumer (sink delivery / drop).
        self._event_pool: list[Event] = []
        self._packet_pool: list[Packet] = []
        # Per-simulator id sequences (auto link names, packet uids), so
        # back-to-back simulations in one process number components
        # deterministically regardless of what ran before.
        self._id_counters: dict[str, int] = {}
        self._packet_uid = 0

    def next_id(self, kind: str) -> int:
        """Next id in this simulator's ``kind`` sequence (1-based)."""
        n = self._id_counters.get(kind, 0) + 1
        self._id_counters[kind] = n
        return n

    # ------------------------------------------------------------------
    # scheduling
    # ------------------------------------------------------------------
    def schedule(self, delay: float, fn: Callable[..., Any], *args: Any) -> Event:
        """Schedule ``fn(*args)`` to run ``delay`` seconds from now."""
        return self.schedule_at(self.now + delay, fn, *args)

    def schedule_at(self, time: float, fn: Callable[..., Any], *args: Any) -> Event:
        """Schedule ``fn(*args)`` at absolute simulation time ``time``."""
        if not math.isfinite(time):
            raise SimulationError(f"non-finite event time: {time!r}")
        if time < self.now:
            raise SimulationError(
                f"cannot schedule in the past: t={time:.9f} < now={self.now:.9f}"
            )
        seq = self._seq
        self._seq = seq + 1
        pool = self._event_pool
        if pool:
            ev = pool.pop()
            ev.time = time
            ev.seq = seq
            ev.fn = fn
            ev.args = args
            ev.cancelled = False
        else:
            ev = Event(time, seq, fn, args)
        ev.owner = self
        self._push((time, seq, ev, None), time)
        return ev

    def schedule_fast(self, delay: float, fn: Callable[..., Any], *args: Any) -> None:
        """Slot-free scheduling for the dominant hot-path case.

        Semantically ``schedule(delay, fn, *args)`` minus the handle: no
        :class:`Event` is allocated and the callback cannot be cancelled.
        Packet transmission and delivery timers — the per-packet bulk of
        any scenario — use this path.  ``delay`` must be finite and
        non-negative.
        """
        if not 0.0 <= delay < _INF:
            raise SimulationError(f"fast-path delay must be finite and >= 0: {delay!r}")
        seq = self._seq
        self._seq = seq + 1
        time = self.now + delay
        w0 = self._w0
        if w0 is not None:
            tick = int(time * _TICK_HZ)
            if tick <= self._pos:
                # The wheel already released this tick (a transmission
                # is shorter than one tick): join the batch being
                # drained; _push says why the cursor bounds the search.
                insort(self._due, (time, seq, fn, args), self._due_i)
                return
            if (tick >> _W0_BITS) == self._w0_group:
                w0[tick & _W0_MASK].append((time, seq, fn, args))
                self._w0_count += 1
                return
        self._push((time, seq, fn, args), time)

    def _push(self, entry: tuple, time: float) -> None:
        """Route one entry to the wheel level covering its timestamp (or
        the overflow heap)."""
        w0 = self._w0
        if w0 is None:
            heapq.heappush(self._heap, entry)
            return
        tick = int(time * _TICK_HZ)
        while True:
            if tick > self._pos:
                goff = (tick >> _W0_BITS) - self._w0_group
                if goff == 0:
                    w0[tick & _W0_MASK].append(entry)
                    self._w0_count += 1
                    return
                if 0 < goff <= _W1:
                    self._w1[(tick >> _W0_BITS) & _W1_MASK].append(entry)
                    self._w1_count += 1
                    return
                if not (self._w0_count or self._w1_count):
                    # An empty wheel whose position fell behind the clock
                    # (it idled while far timers drained off the heap):
                    # re-anchor at now — nothing can be orphaned — and
                    # re-route, so near timers re-engage the wheel
                    # instead of overflowing to the heap forever.
                    tick_now = int(self.now * _TICK_HZ)
                    if tick_now - 1 > self._pos:
                        self._pos = tick_now - 1
                        self._w0_group = tick_now >> _W0_BITS
                        continue
                heapq.heappush(self._heap, entry)
                return
            # The wheel already advanced past this tick (same-tick
            # scheduling from inside the dispatch loop): join the batch
            # being drained, keeping it sorted.  The insertion point is
            # always at/after the cursor — a new entry's time is >= now
            # and its seq is newer than everything already released.
            insort(self._due, entry, self._due_i)
            return

    def _alloc_wheel(self) -> None:
        self._w0 = [[] for _ in range(_W0)]
        self._w1 = [[] for _ in range(_W1)]
        # Anchor the wheel at the current clock so the first group starts
        # at now's span, not at t=0 (a sim can start scheduling late).
        tick = int(self.now * _TICK_HZ)
        self._pos = tick - 1
        self._w0_group = tick >> _W0_BITS

    def schedule_every(self, interval: float, fn: Callable[..., Any], *args: Any) -> RepeatingEvent:
        """Run ``fn(*args)`` every ``interval`` sim-seconds while the
        simulator has other pending work (first firing one interval from
        now).  Returns a :class:`RepeatingEvent` handle whose ``cancel()``
        stops the recurrence.  Firings are anchored to
        ``now + k * interval``, so long recurrences never drift.  Used by
        periodic samplers/checkers that must never keep a finished run
        alive."""
        return RepeatingEvent(self, interval, fn, args)

    # ------------------------------------------------------------------
    # packet pool
    # ------------------------------------------------------------------
    def alloc_packet(
        self,
        flow_id: int,
        seq: int,
        size: int,
        kind: str = DATA,
        src: int = -1,
        dst: int = -1,
        created: float = 0.0,
        ecn_capable: bool = False,
        tx_id: int = 0,
        meta: Optional[object] = None,
    ) -> Packet:
        """Allocate a :class:`~repro.sim.packet.Packet`, reusing the free
        list when possible.

        Uids are drawn from a per-simulator sequence, so pooling (and
        whatever ran earlier in the process) never perturbs the uid
        assignment of a seeded run — back-to-back identical runs allocate
        identical uid streams.
        """
        uid = self._packet_uid
        self._packet_uid = uid + 1
        pool = self._packet_pool
        if pool:
            pkt = pool.pop()
            if size <= 0:
                raise ValueError(f"packet size must be positive, got {size}")
            pkt.uid = uid
            pkt.flow_id = flow_id
            pkt.seq = seq
            pkt.size = size
            pkt.kind = kind
            pkt.src = src
            pkt.dst = dst
            pkt.created = created
            pkt.ecn_capable = ecn_capable
            pkt.ecn_marked = False
            pkt.ecn_echo = False
            pkt.tx_id = tx_id
            pkt.meta = meta
            return pkt
        pkt = Packet(
            flow_id, seq, size, kind=kind, src=src, dst=dst, created=created,
            ecn_capable=ecn_capable, tx_id=tx_id, meta=meta, uid=uid,
        )
        return pkt

    def free_packet(self, pkt: Packet) -> None:
        """Return a packet to the free list.

        Called by a packet's *terminal consumer* — the sink that absorbed
        it or the component that dropped it — after the last read of its
        fields.  Never call it while any other component still holds a
        reference.  Forgetting to free is always safe (the object is
        simply garbage-collected); freeing twice is not.
        """
        pool = self._packet_pool
        if len(pool) < PACKET_POOL_MAX:
            pkt.meta = None  # drop payload references while pooled
            pool.append(pkt)

    # ------------------------------------------------------------------
    # cancelled-event bookkeeping
    # ------------------------------------------------------------------
    def _note_cancelled(self) -> None:
        """Called by :meth:`Event.cancel` for events still queued.

        Wheel-resident and heap-resident corpses share this one counter
        (an Event's ``owner`` is set wherever its tuple lives), so the
        cancelled-ratio gauge and ``pending`` stay exact regardless of
        which structure holds the corpse.
        """
        self._cancelled += 1
        total = self.queued
        if total >= COMPACT_MIN_HEAP and self._cancelled * 2 > total:
            self._compact()

    def _sweep_live(self, entries: list, out: list) -> list:
        recycle = self._recycle_event
        for entry in entries:
            if entry[3] is None and entry[2].cancelled:
                entry[2].owner = None
                recycle(entry[2])
            else:
                out.append(entry)
        return out

    def _compact(self) -> None:
        """Drop cancelled corpses from every queue and rebuild, in place.

        In place matters: the run loop holds local aliases of the heap
        and due lists, and compaction can fire from inside a callback (a
        retransmit timer cancelling en masse).  Wheel buckets and the
        unconsumed due tail are swept alongside the heap, so a cancel
        storm against wheel-resident timers is reclaimed just the same.
        """
        heap = self._heap
        heap[:] = self._sweep_live(heap, [])
        heapq.heapify(heap)
        if self._w0 is not None:
            w0_count = 0
            for bucket in self._w0:
                if bucket:
                    live = self._sweep_live(bucket, [])
                    if len(live) != len(bucket):
                        bucket[:] = live
                    w0_count += len(bucket)
            self._w0_count = w0_count
            w1_count = 0
            for bucket in self._w1:
                if bucket:
                    live = self._sweep_live(bucket, [])
                    if len(live) != len(bucket):
                        bucket[:] = live
                    w1_count += len(bucket)
            self._w1_count = w1_count
        due = self._due
        if self._due_i < len(due):
            tail = self._sweep_live(due[self._due_i:], [])
            del due[self._due_i:]
            due.extend(tail)
        self._cancelled = 0
        self.compactions += 1

    def _recycle_event(self, ev: Event) -> None:
        """Return a fired or discarded Event handle to the free list."""
        ev.fn = None
        ev.args = ()
        ev.owner = None
        # Pooled handles read as cancelled so a stale cancel() on a fired
        # event is a guarded no-op rather than a bookkeeping skew.
        ev.cancelled = True
        pool = self._event_pool
        if len(pool) < EVENT_POOL_MAX:
            pool.append(ev)

    def _discard_cancelled_pop(self, ev: Event) -> None:
        """Uniform bookkeeping for one cancelled corpse leaving a queue.

        Shared by :meth:`run`, :meth:`step`, and :meth:`peek_time` so the
        in-queue cancellation count, the :attr:`cancelled_popped` counter,
        and handle recycling stay consistent no matter which loop drains
        the corpse.
        """
        self._cancelled -= 1
        self.cancelled_popped += 1
        self._recycle_event(ev)

    # ------------------------------------------------------------------
    # wheel dispatch
    # ------------------------------------------------------------------
    def _advance_wheel(self) -> None:
        """Release the next nonempty wheel bucket into the due batch.

        Precondition: the due batch is fully consumed and the wheel holds
        at least one entry.  Scans level 0 forward from the wheel
        position (the scan is monotone, so empty buckets are visited at
        most once per span) and cascades the next nonempty level-1 group
        down when the current span is exhausted.  The released bucket is
        sorted once — C timsort over ``(time, seq)`` tuple keys — and
        then drained via the cursor: the batch-dequeue that replaces a
        compare-and-sift per event.
        """
        due = self._due
        due.clear()
        self._due_i = 0
        w0 = self._w0
        while True:
            if self._w0_count:
                base = self._w0_group << _W0_BITS
                tick = self._pos + 1
                if tick < base:
                    tick = base
                end = base + _W0
                while tick < end:
                    bucket = w0[tick & _W0_MASK]
                    if bucket:
                        due.extend(bucket)
                        bucket.clear()
                        self._w0_count -= len(due)
                        if len(due) > 1:
                            due.sort()
                        self._pos = tick
                        return
                    tick += 1
                raise SimulationError("timer wheel inconsistency (level 0)")
            if not self._w1_count:
                raise SimulationError("_advance_wheel called on an empty wheel")
            g = self._w0_group
            w1 = self._w1
            for step in range(1, _W1 + 1):
                ng = g + step
                bucket = w1[ng & _W1_MASK]
                if bucket:
                    self._w0_group = ng
                    npos = (ng << _W0_BITS) - 1
                    if npos > self._pos:
                        self._pos = npos
                    for e in bucket:
                        w0[int(e[0] * _TICK_HZ) & _W0_MASK].append(e)
                    n = len(bucket)
                    bucket.clear()
                    self._w1_count -= n
                    self._w0_count += n
                    break
            else:
                raise SimulationError("timer wheel inconsistency (level 1)")

    # ------------------------------------------------------------------
    # execution
    # ------------------------------------------------------------------
    def run(self, until: float = math.inf, max_events: Optional[int] = None) -> None:
        """Run events until the queue is empty, ``until`` is reached, or
        ``max_events`` have been processed.

        ``until`` is inclusive: events at exactly ``until`` execute, and the
        clock is left at ``min(until, last event time)``.
        """
        if self._running:
            raise SimulationError("simulator is not reentrant")
        self._running = True
        try:
            heap = self._heap
            heappop = heapq.heappop
            due = self._due
            # The profiler cannot change mid-run (profile() brackets the
            # whole run), so bind it once outside the dispatch loop.
            prof = self._profiler
            budget = math.inf if max_events is None else max_events
            while budget > 0:
                i = self._due_i
                if i < len(due):
                    entry = due[i]
                    if heap and heap[0] < entry:
                        # A far timer overflowed to the heap and is now
                        # nearer than the wheel batch: merge by key.
                        if heap[0][0] > until:
                            break
                        entry = heappop(heap)
                    else:
                        if entry[0] > until:
                            break
                        self._due_i = i + 1
                elif self._w0_count or self._w1_count:
                    self._advance_wheel()
                    continue
                elif heap:
                    entry = heap[0]
                    if entry[0] > until:
                        break
                    heappop(heap)
                else:
                    break
                args = entry[3]
                if args is None:
                    # Slotted entry: unwrap the Event handle.
                    ev = entry[2]
                    ev.owner = None
                    if ev.cancelled:
                        self._discard_cancelled_pop(ev)
                        continue
                    fn, args = ev.fn, ev.args
                    self._recycle_event(ev)
                else:
                    fn = entry[2]
                self.now = entry[0]
                if prof is None:
                    fn(*args)
                else:
                    t0 = perf_counter()
                    fn(*args)
                    prof.record_event(fn, perf_counter() - t0, self.queued)
                self.events_processed += 1
                budget -= 1
            if math.isfinite(until) and self.now < until and not (self.queued and budget <= 0):
                self.now = until
        finally:
            self._running = False

    def step(self) -> bool:
        """Execute the single next pending event.  Returns False if idle."""
        heap = self._heap
        due = self._due
        while True:
            i = self._due_i
            if i < len(due):
                entry = due[i]
                if heap and heap[0] < entry:
                    entry = heapq.heappop(heap)
                else:
                    self._due_i = i + 1
            elif self._w0_count or self._w1_count:
                self._advance_wheel()
                continue
            elif heap:
                entry = heapq.heappop(heap)
            else:
                return False
            args = entry[3]
            if args is None:
                ev = entry[2]
                ev.owner = None
                if ev.cancelled:
                    self._discard_cancelled_pop(ev)
                    continue
                fn, args = ev.fn, ev.args
                self._recycle_event(ev)
            else:
                fn = entry[2]
            self.now = entry[0]
            prof = self._profiler
            if prof is None:
                fn(*args)
            else:
                t0 = perf_counter()
                fn(*args)
                prof.record_event(fn, perf_counter() - t0, self.queued)
            self.events_processed += 1
            return True

    def peek_time(self) -> float:
        """Timestamp of the next pending event, or ``inf`` when idle."""
        heap = self._heap
        due = self._due
        while True:
            i = self._due_i
            if i < len(due):
                entry = due[i]
                if entry[3] is None and entry[2].cancelled:
                    self._due_i = i + 1
                    entry[2].owner = None
                    self._discard_cancelled_pop(entry[2])
                    continue
                if heap:
                    h = heap[0]
                    if h < entry:
                        if h[3] is None and h[2].cancelled:
                            heapq.heappop(heap)
                            h[2].owner = None
                            self._discard_cancelled_pop(h[2])
                            continue
                        return h[0]
                return entry[0]
            if self._w0_count or self._w1_count:
                self._advance_wheel()
                continue
            if heap:
                h = heap[0]
                if h[3] is None and h[2].cancelled:
                    heapq.heappop(heap)
                    h[2].owner = None
                    self._discard_cancelled_pop(h[2])
                    continue
                return h[0]
            return math.inf

    @property
    def queued(self) -> int:
        """Total queued entries across heap, wheel, and due batch
        (cancelled corpses included).  O(1)."""
        return (len(self._heap) + self._w0_count + self._w1_count
                + len(self._due) - self._due_i)

    @property
    def pending(self) -> int:
        """Number of not-yet-cancelled events in the queue.  O(1)."""
        return self.queued - self._cancelled

    @property
    def cancelled_ratio(self) -> float:
        """Fraction of the queue occupied by cancelled corpses."""
        total = self.queued
        if not total:
            return 0.0
        return self._cancelled / total

    # ------------------------------------------------------------------
    # observability
    # ------------------------------------------------------------------
    @contextlib.contextmanager
    def profile(self) -> Iterator["EventLoopProfile"]:
        """Profile the event loop for the duration of a ``with`` block.

        Yields an :class:`~repro.obs.profiling.EventLoopProfile` that fills
        with events/sec, queue size, cancelled-event ratio, and per-callback
        timing while any ``run``/``step`` executes inside the block.
        Nestable; the previous profiler (if any) is restored on exit.
        This is the per-callback profiler (two clock reads and a table
        update per event); ``RunObservation.profiled()`` reads the
        engine's counters instead.
        """
        from repro.obs.profiling import EventLoopProfile

        prof = EventLoopProfile()
        previous = self._profiler
        self._profiler = prof
        prof.start(self)
        try:
            yield prof
        finally:
            prof.stop(self)
            self._profiler = previous

    def attach_metrics(self, registry: "MetricsRegistry") -> None:
        """Expose live engine state as callback gauges in ``registry``."""
        self.metrics = registry
        registry.gauge("engine.events_processed", fn=lambda: self.events_processed)
        registry.gauge("engine.heap_size", fn=lambda: len(self._heap))
        registry.gauge("engine.wheel_size", fn=lambda: self._w0_count + self._w1_count)
        registry.gauge("engine.queued", fn=lambda: self.queued)
        registry.gauge("engine.pending", fn=lambda: self.pending)
        registry.gauge("engine.cancelled_in_heap", fn=lambda: self._cancelled)
        registry.gauge("engine.cancelled_ratio", fn=lambda: self.cancelled_ratio)
        registry.gauge("engine.compactions", fn=lambda: self.compactions)
        registry.gauge("engine.sim_time", fn=lambda: self.now)
        registry.gauge("engine.event_pool", fn=lambda: len(self._event_pool))
        registry.gauge("engine.packet_pool", fn=lambda: len(self._packet_pool))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Simulator now={self.now:.6f} pending={self.pending}>"
