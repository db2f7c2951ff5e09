"""Event scheduler for the discrete-event network simulator.

The engine is one binary heap of plain tuples, with two hot-path
refinements over the original ``Event``-object heap (see
``docs/PERFORMANCE.md``):

* **Tuple-keyed entries.**  Pending events are tuples
  ``(time, seq, payload, ...)`` instead of ``Event`` objects, so every
  ordering comparison is a C-level tuple comparison; the scheduling
  sequence number is unique, which makes the ``(time, seq)`` prefix a
  total order and guarantees the payload slots are never compared.  This
  is the "precomputed sort key": it is built once at schedule time,
  never per comparison.
* **Frame-free primitives for the per-hop path.**  :attr:`Simulator.push`
  (``heappush`` bound to the heap) and :attr:`Simulator.reserve_seq` (an
  ``itertools.count``) are C callables: a link pushes its delivery entry
  ``(time, seq, fn, args)`` with no Python frame and no handle, while
  :meth:`Simulator.schedule` keeps returning a cancellable
  :class:`Event` drawn from a per-simulator free list.

A link puts one entry on the heap per hop (see :mod:`repro.sim.link`):
the delivery, scheduled when the transmission starts, plus one dequeue
entry per packet that waited in its queue.  :attr:`Simulator.dispatch_seq`
tells it where in the ``(time, seq)`` order the clock stands, so an
offer at the very instant a transmission ends resolves as it would
against a completion event.

Determinism matters for reproducing the paper's traces, so events
scheduled for the same timestamp are executed in scheduling order (the
monotonically increasing sequence number breaks ties — identically for
slotted and raw entries, which share one counter), and all randomness
lives in named RNG streams (:mod:`repro.sim.rng`), never in the engine.
A reference implementation of the original, pre-optimization engine is
kept in :mod:`repro.sim.reference` as the oracle for the
scheduler-equivalence tests.
"""

from __future__ import annotations

import contextlib
import functools
import heapq
import itertools
import math
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
    Anchoring keeps telemetry sampler output byte-identical across
    engines (:class:`Simulator` and
    :class:`~repro.sim.reference.ReferenceSimulator`).

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

    Queue entries are 4-tuples on one binary heap.  ``(time, seq, fn,
    args)`` is a raw entry (pushed by links through :attr:`push`);
    ``(time, seq, event, None)`` carries a cancellable :class:`Event`
    (the ``None`` in the args slot is the discriminator).  Both kinds
    draw ``seq`` from one counter, so the ``(time, seq)`` prefix orders
    all entries exactly as the pre-optimization engine did.  :meth:`run`
    is the one dispatcher.

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

    def __init__(self) -> None:
        self._heap: list[tuple] = []
        #: ``push(entry)`` heap-pushes a ``(time, seq, fn, args)`` entry,
        #: and ``reserve_seq()`` draws the next sequence number: C
        #: callables, so the per-hop path spends no Python frame on them.
        #: A raw entry cannot be cancelled; ``time`` must be finite and
        #: not in the past (the caller's duty: nothing checks it here).
        self.push: Callable[[tuple], None] = functools.partial(heapq.heappush, self._heap)
        self.reserve_seq: Callable[[], int] = itertools.count().__next__
        #: Sequence number of the entry being dispatched; infinite outside
        #: dispatch, where ``now`` counts as after every entry at ``now``
        #: (after a ``max_events`` stop: the last entry dispatched).
        self.dispatch_seq: float = _INF
        self.now: float = 0.0
        self.events_processed: int = 0
        self._running = False
        # Cancelled events still sitting in the heap; kept exact so
        # ``pending`` is O(1) and compaction triggers deterministically.
        self._cancelled = 0
        self.compactions = 0
        #: Cancelled corpses popped off the heap (compaction sweeps are
        #: not pops); ``RunObservation`` and ``EventLoopProfile`` read deltas.
        self.cancelled_popped = 0
        self._profiler: Optional["EventLoopProfile"] = None
        self.metrics: Optional["MetricsRegistry"] = None
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
        seq = self.reserve_seq()
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
        self.push((time, seq, ev, None))
        return ev

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
        identical uid streams.  A rejected ``size`` draws no uid and takes
        nothing from the pool.
        """
        if size <= 0:
            raise ValueError(f"packet size must be positive, got {size}")
        uid = self._packet_uid
        self._packet_uid = uid + 1
        pool = self._packet_pool
        if pool:
            pkt = pool.pop()
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
        return Packet(
            flow_id, seq, size, kind=kind, src=src, dst=dst, created=created,
            ecn_capable=ecn_capable, tx_id=tx_id, meta=meta, uid=uid,
        )

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
        """Called by :meth:`Event.cancel` for events still queued."""
        self._cancelled += 1
        total = len(self._heap)
        if total >= COMPACT_MIN_HEAP and self._cancelled * 2 > total:
            self._compact()

    def _compact(self) -> None:
        """Drop cancelled corpses from the heap and rebuild it, in place.

        In place matters: :attr:`push` and the run loop hold the heap
        list itself, and compaction can fire from inside a callback (a
        retransmit timer cancelling en masse).
        """
        heap = self._heap
        live = []
        recycle = self._recycle_event
        for entry in heap:
            if entry[3] is None and entry[2].cancelled:
                recycle(entry[2])
            else:
                live.append(entry)
        heap[:] = live
        heapq.heapify(heap)
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
        heap = self._heap
        budget = math.inf if max_events is None else max_events
        try:
            heappop = heapq.heappop
            # The profiler cannot change mid-run (profile() brackets the
            # whole run), so bind it once outside the dispatch loop.
            prof = self._profiler
            while heap and budget > 0:
                entry = heap[0]
                time = entry[0]
                if time > until:
                    break
                heappop(heap)
                args = entry[3]
                if args is None:
                    # Slotted entry: unwrap the Event handle.
                    ev = entry[2]
                    ev.owner = None
                    if ev.cancelled:
                        self._cancelled -= 1
                        self.cancelled_popped += 1
                        self._recycle_event(ev)
                        continue
                    fn, args = ev.fn, ev.args
                    self._recycle_event(ev)
                else:
                    fn = entry[2]
                self.now = time
                self.dispatch_seq = entry[1]
                if prof is None:
                    fn(*args)
                else:
                    t0 = perf_counter()
                    fn(*args)
                    prof.record_event(fn, perf_counter() - t0, len(heap))
                self.events_processed += 1
                budget -= 1
            if math.isfinite(until) and self.now < until and not (heap and budget <= 0):
                self.now = until
        finally:
            if not (heap and budget <= 0):
                self.dispatch_seq = _INF
            self._running = False

    @property
    def queued(self) -> int:
        """Entries on the heap, cancelled corpses included.  O(1)."""
        return len(self._heap)

    @property
    def pending(self) -> int:
        """Number of not-yet-cancelled events in the queue.  O(1)."""
        return len(self._heap) - self._cancelled

    @property
    def cancelled_ratio(self) -> float:
        """Fraction of the queue occupied by cancelled corpses."""
        total = len(self._heap)
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
        timing while any ``run`` executes inside the block.
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
