"""Reference (pre-optimization) event scheduler.

:class:`ReferenceSimulator` preserves the original engine verbatim: an
``Event``-object heap ordered by Python-level ``__lt__`` calls, a fresh
``Event`` per schedule, and a fresh ``Packet`` per allocation — no free
lists, no tuple-keyed entries, no slot-free fast path.  It exists as the
**equivalence oracle**: the scheduler property tests drive both engines
with identical seeded schedule/cancel workloads and the Fig. 2 scenario
and assert identical firing order, timestamps and drop traces
(``tests/sim/test_scheduler_equivalence.py``), a stateful fuzz compares
the clock and every counter after each schedule, cancel and ``run``
slice (``tests/sim/test_scheduler_fuzz.py``), and the sender x queue
matrix holds every zoo cell to it
(``tests/integration/test_zoo_matrix.py``).

The optimized API surface (``schedule_fast``, ``alloc_packet``,
``free_packet``) is shimmed onto the reference semantics — same observable
behaviour, original cost model — so any scenario built for ``Simulator``
runs unchanged on ``ReferenceSimulator``.

Do not use this class for real experiments; it is deliberately slow.
"""

from __future__ import annotations

import contextlib
import heapq
import itertools
import math
from time import perf_counter
from typing import TYPE_CHECKING, Any, Callable, Iterator, Optional

from repro.sim.engine import COMPACT_MIN_HEAP, Event, RepeatingEvent, SimulationError
from repro.sim.packet import DATA, Packet

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids import cycle
    from repro.obs.metrics import MetricsRegistry
    from repro.obs.profiling import EventLoopProfile

__all__ = ["ReferenceSimulator"]


class ReferenceSimulator:
    """Pre-optimization simulator: Event-object heap, no pooling.

    Drop-in API-compatible with :class:`~repro.sim.engine.Simulator`;
    see the module docstring for why it is kept.
    """

    def __init__(self) -> None:
        self._heap: list[Event] = []
        self._seq = itertools.count()
        self.now: float = 0.0
        self.events_processed: int = 0
        self._running = False
        self._cancelled = 0
        self.compactions = 0
        self.cancelled_popped = 0
        self._profiler: Optional["EventLoopProfile"] = None
        self.metrics: Optional["MetricsRegistry"] = None
        self._id_counters: dict[str, Iterator[int]] = {}
        self._packet_uid = itertools.count()

    def next_id(self, kind: str) -> int:
        """Next id in this simulator's ``kind`` sequence (1-based)."""
        counter = self._id_counters.get(kind)
        if counter is None:
            counter = itertools.count(1)
            self._id_counters[kind] = counter
        return next(counter)

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
        ev = Event(time, next(self._seq), fn, args)
        ev.owner = self
        heapq.heappush(self._heap, ev)
        return ev

    def schedule_fast(self, delay: float, fn: Callable[..., Any], *args: Any) -> None:
        """Shim: the reference engine has no fast path, so this is plain
        ``schedule`` with the handle discarded (original cost model)."""
        if not 0.0 <= delay < math.inf:
            raise SimulationError(f"fast-path delay must be finite and >= 0: {delay!r}")
        self.schedule_at(self.now + delay, fn, *args)

    def schedule_every(self, interval: float, fn: Callable[..., Any], *args: Any) -> RepeatingEvent:
        """Run ``fn(*args)`` every ``interval`` sim-seconds while other
        pending work exists; see :meth:`Simulator.schedule_every`."""
        return RepeatingEvent(self, interval, fn, args)  # type: ignore[arg-type]

    # ------------------------------------------------------------------
    # packet shims (no pooling)
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
        """Allocate a fresh :class:`~repro.sim.packet.Packet` (never pooled),
        with the same per-simulator uid sequence as the optimized engine."""
        return Packet(
            flow_id, seq, size, kind=kind, src=src, dst=dst, created=created,
            ecn_capable=ecn_capable, tx_id=tx_id, meta=meta,
            uid=next(self._packet_uid),
        )

    def free_packet(self, pkt: Packet) -> None:
        """Shim: the reference engine never recycles packets."""

    # ------------------------------------------------------------------
    # cancelled-event bookkeeping
    # ------------------------------------------------------------------
    def _note_cancelled(self) -> None:
        self._cancelled += 1
        heap = self._heap
        if len(heap) >= COMPACT_MIN_HEAP and self._cancelled * 2 > len(heap):
            self._compact()

    def _compact(self) -> None:
        heap = self._heap
        heap[:] = [ev for ev in heap if not ev.cancelled]
        heapq.heapify(heap)
        self._cancelled = 0
        self.compactions += 1

    # ------------------------------------------------------------------
    # execution
    # ------------------------------------------------------------------
    def run(self, until: float = math.inf, max_events: Optional[int] = None) -> None:
        """Run events until the queue is empty, ``until`` is reached, or
        ``max_events`` have been processed (``until`` inclusive)."""
        if self._running:
            raise SimulationError("simulator is not reentrant")
        self._running = True
        try:
            heap = self._heap
            budget = math.inf if max_events is None else max_events
            while heap and budget > 0:
                ev = heap[0]
                if ev.time > until:
                    break
                heapq.heappop(heap)
                ev.owner = None
                if ev.cancelled:
                    self._cancelled -= 1
                    self.cancelled_popped += 1
                    continue
                self.now = ev.time
                fn, args = ev.fn, ev.args
                ev.fn, ev.args = None, ()  # release references
                assert fn is not None
                prof = self._profiler
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
            self._running = False

    @property
    def pending(self) -> int:
        """Number of not-yet-cancelled events in the queue.  O(1)."""
        return len(self._heap) - self._cancelled

    @property
    def cancelled_ratio(self) -> float:
        """Fraction of the heap occupied by cancelled corpses."""
        if not self._heap:
            return 0.0
        return self._cancelled / len(self._heap)

    # ------------------------------------------------------------------
    # observability
    # ------------------------------------------------------------------
    @contextlib.contextmanager
    def profile(self) -> Iterator["EventLoopProfile"]:
        """Profile the event loop for the duration of a ``with`` block."""
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
        registry.gauge("engine.pending", fn=lambda: self.pending)
        registry.gauge("engine.cancelled_in_heap", fn=lambda: self._cancelled)
        registry.gauge("engine.cancelled_ratio", fn=lambda: self.cancelled_ratio)
        registry.gauge("engine.compactions", fn=lambda: self.compactions)
        registry.gauge("engine.sim_time", fn=lambda: self.now)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<ReferenceSimulator now={self.now:.6f} pending={self.pending}>"
