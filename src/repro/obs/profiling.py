"""Event-loop profiling for the discrete-event engine.

``Simulator.profile()`` installs an :class:`EventLoopProfile` for the
duration of a ``with`` block; while installed, ``run`` and ``step`` report
every executed callback (with its wall-clock duration) and the heap size,
and the profile reads the engine's cancelled-pop and compaction counters
at both ends of the block, so a finished profile answers the questions
that matter for paper-scale runs: events/sec, where the time goes
per callback type, and how much of the heap is dead (cancelled) weight.

That per-callback hook costs two clock reads and a table update per
event.  :func:`loop_totals` is the part that costs nothing per event:
the counter-derived totals, which ``RunObservation.profiled()`` exports
as the ``event_loop`` metrics section without installing a profile.

The profile is plain data — it never touches the engine, so importing
this module from :mod:`repro.sim.engine` lazily keeps the dependency
one-way (engine -> obs only inside ``profile()``).
"""

from __future__ import annotations

import time
from typing import Callable, Optional

__all__ = ["EventLoopProfile", "callback_name", "loop_totals"]


def callback_name(fn: Callable) -> str:
    """Stable, human-readable label for an event callback."""
    name = getattr(fn, "__qualname__", None)
    if name is None:  # partials, callables without introspection
        name = type(fn).__name__
    return name


def loop_totals(
    events: int,
    wall_time: float,
    sim_time: float,
    cancelled_popped: int,
    compactions: int,
) -> dict:
    """JSON-ready event-loop totals of one capture window.

    ``cancelled_ratio`` is the share of popped entries that were cancelled
    corpses (``events`` executed plus ``cancelled_popped`` discarded).
    """
    popped = events + cancelled_popped
    return {
        "events": events,
        "wall_time_s": wall_time,
        "events_per_sec": events / wall_time if wall_time > 0 else 0.0,
        "sim_time_advanced_s": sim_time,
        "cancelled_popped": cancelled_popped,
        "cancelled_ratio": cancelled_popped / popped if popped else 0.0,
        "heap_compactions": compactions,
    }


class CallbackStats:
    """Aggregate count and wall time of one callback type."""

    __slots__ = ("count", "total_time")

    def __init__(self) -> None:
        self.count = 0
        self.total_time = 0.0

    def as_dict(self) -> dict:
        """JSON-ready summary of this callback type."""
        return {
            "count": self.count,
            "total_time_s": self.total_time,
            "mean_time_us": (self.total_time / self.count * 1e6) if self.count else 0.0,
        }


class EventLoopProfile:
    """Statistics captured while installed on a :class:`Simulator`.

    Populated by the engine's ``run``/``step`` loops (per callback) and by
    :meth:`start`/:meth:`stop` (counter deltas); read after the ``with``
    block via the properties or :meth:`as_dict`.  ``events`` counts only
    callbacks reported to this profile, so a nested profile's events are
    not double-counted; the counter deltas (``cancelled_popped``,
    ``compactions``) span the whole block.
    """

    def __init__(self) -> None:
        self.events = 0
        self.cancelled_popped = 0
        self.max_heap_size = 0
        self.callbacks: dict[str, CallbackStats] = {}
        self.wall_start: Optional[float] = None
        self.wall_time = 0.0
        self.sim_start = 0.0
        self.sim_end = 0.0
        self.compactions = 0
        self._compactions_at_start = 0
        self._cancelled_at_start = 0

    # -- engine-facing hooks (hot path) ---------------------------------
    def record_event(self, fn: Callable, duration: float, heap_size: int) -> None:
        """Account one executed callback."""
        self.events += 1
        if heap_size > self.max_heap_size:
            self.max_heap_size = heap_size
        name = callback_name(fn)
        stats = self.callbacks.get(name)
        if stats is None:
            stats = CallbackStats()
            self.callbacks[name] = stats
        stats.count += 1
        stats.total_time += duration

    # -- lifecycle ------------------------------------------------------
    def start(self, sim) -> None:
        """Begin the capture window (called by ``Simulator.profile()``)."""
        self.wall_start = time.perf_counter()
        self.sim_start = sim.now
        self._compactions_at_start = sim.compactions
        self._cancelled_at_start = sim.cancelled_popped

    def stop(self, sim) -> None:
        """Close the capture window and freeze derived totals."""
        if self.wall_start is not None:
            self.wall_time += time.perf_counter() - self.wall_start
            self.wall_start = None
        self.sim_end = sim.now
        self.compactions = sim.compactions - self._compactions_at_start
        self.cancelled_popped = sim.cancelled_popped - self._cancelled_at_start

    # -- derived --------------------------------------------------------
    @property
    def events_per_sec(self) -> float:
        """Executed events per wall-clock second (0 before any capture)."""
        if self.wall_time <= 0:
            return 0.0
        return self.events / self.wall_time

    @property
    def cancelled_ratio(self) -> float:
        """Fraction of popped events that were cancelled corpses."""
        popped = self.events + self.cancelled_popped
        if popped == 0:
            return 0.0
        return self.cancelled_popped / popped

    def as_dict(self, top: int = 20) -> dict:
        """JSON-ready profile; callbacks sorted by total time, top ``top``."""
        ranked = sorted(
            self.callbacks.items(), key=lambda kv: kv[1].total_time, reverse=True
        )
        return {
            **loop_totals(
                self.events, self.wall_time, self.sim_end - self.sim_start,
                self.cancelled_popped, self.compactions,
            ),
            "max_heap_size": self.max_heap_size,
            "callbacks": {name: cs.as_dict() for name, cs in ranked[:top]},
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<EventLoopProfile events={self.events} "
            f"rate={self.events_per_sec:.0f}/s "
            f"cancelled_ratio={self.cancelled_ratio:.3f}>"
        )
