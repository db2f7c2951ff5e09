"""Phase/span tracing: nested spans and point events as JSON-lines.

Every observed run is a sequence of phases — build the scenario, warm
up, run the measured window, analyze — and campaign-scale drivers add a
span per cell (:mod:`repro.experiments.fig8_parallel`) and per
:func:`~repro.experiments.parallel.parallel_map` item.  A
:class:`SpanTracer` records that structure:

* :meth:`SpanTracer.span` — a ``with`` block that opens a nested span
  (parent inferred from the active stack) and stamps both sim time (when
  a clock is attached) and wall time;
* :meth:`SpanTracer.event` — a point event inside the current span;
  fault injections from :mod:`repro.faults` land here via the plan's
  observer hook, so every injected flap/spike/crash is visible in the
  trace;
* :meth:`SpanTracer.record_span` — a retroactive span for work that
  completed elsewhere (a pool worker's item), recorded parent-side with
  its duration already known.

Export is JSON-lines (one record per line, ``kind`` = ``span`` |
``event``) via :meth:`write_jsonl`, atomic like every other artifact.
Wall-clock fields (``wall_*``) are included for humans reading the raw
trace but are **never** consumed by the report generator — reports must
be byte-identical across runs of the same seed.

Drivers do not build tracers themselves:
:func:`repro.obs.runtime.open_flight_log` gives them one inside a
:class:`~repro.obs.runtime.FlightLog` when telemetry is armed, and none
(so nothing is allocated or recorded) when it is off.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from pathlib import Path
from typing import TYPE_CHECKING, Callable, Iterator, Optional, Union

from repro.obs.metrics import atomic_write_text

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.sim.engine import Simulator

__all__ = ["Span", "SpanTracer"]


class Span:
    """One open (or closed) span in the trace."""

    __slots__ = ("name", "seq", "parent", "depth", "sim_start", "sim_end",
                 "wall_start", "wall_end", "attrs")

    def __init__(self, name: str, seq: int, parent: Optional[int], depth: int,
                 sim_start: Optional[float], wall_start: float, attrs: dict):
        self.name = name
        self.seq = seq
        self.parent = parent
        self.depth = depth
        self.sim_start = sim_start
        self.sim_end: Optional[float] = None
        self.wall_start = wall_start
        self.wall_end: Optional[float] = None
        self.attrs = attrs

    def as_record(self) -> dict:
        rec = {
            "kind": "span",
            "name": self.name,
            "seq": self.seq,
            "parent": self.parent,
            "depth": self.depth,
            "sim_start": self.sim_start,
            "sim_end": self.sim_end,
            "wall_ms": (
                None
                if self.wall_end is None
                else round((self.wall_end - self.wall_start) * 1e3, 3)
            ),
        }
        if self.attrs:
            rec["attrs"] = self.attrs
        return rec


class SpanTracer:
    """Collects nested spans and point events for one run.

    ``clock`` is a zero-arg callable returning the current sim time
    (pass ``sim=`` to bind a :class:`Simulator` directly); without one,
    sim timestamps are ``None`` and only wall time is stamped — the mode
    parent-side drivers (fig8, campaigns) use, since they have no single
    simulator clock.
    """

    def __init__(
        self,
        name: str,
        clock: Optional[Callable[[], float]] = None,
        sim: Optional["Simulator"] = None,
    ):
        if sim is not None:
            if clock is not None:
                raise ValueError("pass clock or sim, not both")
            clock = lambda: sim.now  # noqa: E731 - tiny closure is the point
        self.name = name
        self.clock = clock
        self.records: list[dict] = []
        self._stack: list[Span] = []
        self._seq = 0

    # -- internals ------------------------------------------------------
    def _now_sim(self) -> Optional[float]:
        return None if self.clock is None else float(self.clock())

    def _next_seq(self) -> int:
        self._seq += 1
        return self._seq

    # -- recording ------------------------------------------------------
    @contextmanager
    def span(self, name: str, **attrs) -> Iterator[Span]:
        """Open a nested span for the duration of the ``with`` block."""
        parent = self._stack[-1].seq if self._stack else None
        sp = Span(
            name=name,
            seq=self._next_seq(),
            parent=parent,
            depth=len(self._stack),
            sim_start=self._now_sim(),
            wall_start=time.perf_counter(),
            attrs=dict(attrs),
        )
        self._stack.append(sp)
        try:
            yield sp
        finally:
            self._stack.pop()
            sp.sim_end = self._now_sim()
            sp.wall_end = time.perf_counter()
            self.records.append(sp.as_record())

    def event(self, name: str, **attrs) -> dict:
        """Record a point event inside the current span (if any)."""
        rec = {
            "kind": "event",
            "name": name,
            "seq": self._next_seq(),
            "parent": self._stack[-1].seq if self._stack else None,
            "sim_time": self._now_sim(),
        }
        if attrs:
            rec["attrs"] = attrs
        self.records.append(rec)
        return rec

    def record_span(self, name: str, **attrs) -> dict:
        """Record a retroactive span for work completed elsewhere.

        Used by :func:`~repro.experiments.parallel.parallel_map` to log
        one span per pool item as results arrive parent-side — the
        worker process has no access to this tracer.
        """
        rec = {
            "kind": "span",
            "name": name,
            "seq": self._next_seq(),
            "parent": self._stack[-1].seq if self._stack else None,
            "depth": len(self._stack),
            "sim_start": None,
            "sim_end": None,
            "wall_ms": None,
        }
        if attrs:
            rec["attrs"] = attrs
        self.records.append(rec)
        return rec

    # -- export ---------------------------------------------------------
    def to_jsonl(self) -> str:
        """The trace as JSON-lines text."""
        lines = [json.dumps(r, sort_keys=True) for r in self.records]
        return "\n".join(lines) + ("\n" if lines else "")

    def write_jsonl(self, path: Union[str, Path]) -> Path:
        """Atomically write the trace as a ``.jsonl`` file."""
        return atomic_write_text(path, self.to_jsonl())

    def __len__(self) -> int:
        return len(self.records)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<SpanTracer {self.name}: {len(self.records)} records>"
