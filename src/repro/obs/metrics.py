"""Metric primitives and the registry that exports them as JSON.

Three metric kinds cover everything the simulator reports:

* :class:`Counter` — monotonically increasing count (drops, checks run);
* :class:`Gauge` — point-in-time value, either set explicitly or read
  lazily from a callback so components never push on the hot path;
* :class:`Histogram` — fixed-edge binned distribution (queue occupancy
  samples, callback durations).

A :class:`MetricsRegistry` is a flat namespace of metrics plus a warning
log; ``as_dict()`` is the metrics file emitted next to experiment
results.  Dotted names (``queue.bottleneck.dropped``)
are a convention, not a hierarchy.
"""

from __future__ import annotations

import os
import re
from pathlib import Path
from typing import Callable, Optional, Sequence, Union

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "atomic_write_text",
    "prometheus_metric_name",
]


def atomic_write_text(path: Union[str, Path], text: str) -> Path:
    """Write ``text`` to ``path`` atomically (tmp + fsync + rename).

    Matches the crash-safety discipline of
    :func:`repro.sim.tracefile.save_drop_trace`: a crash mid-write leaves
    either the previous file or nothing — never a truncated artifact.
    Parent directories are created as needed; returns the written path.
    """
    p = Path(path)
    p.parent.mkdir(parents=True, exist_ok=True)
    tmp = p.with_name(f".{p.name}.tmp-{os.getpid()}")
    try:
        with tmp.open("w") as fh:
            fh.write(text)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, p)
    finally:
        if tmp.exists():  # a failed write: leave no temp litter behind
            tmp.unlink()
    return p


#: Characters outside a Prometheus metric name (``[a-zA-Z_:][a-zA-Z0-9_:]*``).
_PROM_NAME_BAD = re.compile(r"[^a-zA-Z0-9_:]")


def prometheus_metric_name(name: str, prefix: str = "") -> str:
    """Sanitize ``name`` into a spec-valid Prometheus metric name: every
    illegal character becomes ``_``, and an illegal first character
    (a leading digit) gets a ``_`` in front."""
    out = _PROM_NAME_BAD.sub("_", name)
    if prefix:
        out = f"{prefix}_{out}"
    if not out or not re.match(r"[a-zA-Z_:]", out[0]):
        out = f"_{out}"
    return out


class Counter:
    """Monotonically increasing counter."""

    __slots__ = ("name", "value")

    def __init__(self, name: str):
        self.name = name
        self.value = 0

    def inc(self, amount: int = 1) -> None:
        """Increase the counter; ``amount`` must be non-negative."""
        if amount < 0:
            raise ValueError(f"counter {self.name}: negative increment {amount}")
        self.value += amount


class Gauge:
    """Point-in-time value, set explicitly or read from a callback.

    Callback gauges (``Gauge("x", fn=lambda: queue.dropped)``) are read at
    export time, so registering one costs nothing during the simulation.
    """

    __slots__ = ("name", "_value", "fn")

    def __init__(self, name: str, fn: Optional[Callable[[], float]] = None):
        self.name = name
        self._value: float = 0.0
        self.fn = fn

    def set(self, value: float) -> None:
        """Record a new value (explicit gauges only)."""
        if self.fn is not None:
            raise ValueError(f"gauge {self.name} is callback-backed; cannot set")
        self._value = float(value)

    @property
    def value(self) -> float:
        """Current value (invokes the callback for callback gauges)."""
        if self.fn is not None:
            return float(self.fn())
        return self._value


class Histogram:
    """Fixed-edge histogram: ``counts[i]`` covers ``edges[i]..edges[i+1]``.

    Values below ``edges[0]`` land in the first bin, values at or above
    ``edges[-1]`` in a dedicated overflow count, so no observation is ever
    silently lost (the "no silent caps" rule the invariant layer enforces
    elsewhere).
    """

    __slots__ = ("name", "edges", "counts", "overflow", "n", "total")

    def __init__(self, name: str, edges: Sequence[float]):
        if len(edges) < 2:
            raise ValueError(f"histogram {name}: need >= 2 edges, got {len(edges)}")
        if any(b <= a for a, b in zip(edges, list(edges)[1:])):
            raise ValueError(f"histogram {name}: edges must be strictly increasing")
        self.name = name
        self.edges = [float(e) for e in edges]
        self.counts = [0] * (len(edges) - 1)
        self.overflow = 0
        self.n = 0
        self.total = 0.0

    def observe(self, value: float) -> None:
        """Record one observation."""
        v = float(value)
        self.n += 1
        self.total += v
        if v >= self.edges[-1]:
            self.overflow += 1
            return
        # Linear scan: histograms here have a handful of bins and are off
        # the per-packet hot path (sampled at invariant-check cadence).
        for i in range(len(self.counts)):
            if v < self.edges[i + 1]:
                self.counts[i] += 1
                return

    @property
    def mean(self) -> float:
        """Mean of all observations (NaN when empty)."""
        return self.total / self.n if self.n else float("nan")

    def as_dict(self) -> dict:
        """JSON-ready summary of this histogram."""
        return {
            "edges": self.edges,
            "counts": list(self.counts),
            "overflow": self.overflow,
            "n": self.n,
            "mean": None if self.n == 0 else self.total / self.n,
        }


class MetricsRegistry:
    """Named metrics plus a warning log, exportable as one JSON document.

    ``counter`` / ``gauge`` / ``histogram`` are get-or-create: components
    can register idempotently without coordinating.  Re-registering a name
    as a different kind is an error (it would silently shadow data).
    """

    def __init__(self, name: str = "metrics"):
        self.name = name
        self._counters: dict[str, Counter] = {}
        self._gauges: dict[str, Gauge] = {}
        self._histograms: dict[str, Histogram] = {}
        self.warnings: list[str] = []
        #: Free-form structured sections merged into the export
        #: (e.g. per-queue conservation tables, profile stats).
        self.sections: dict[str, object] = {}

    # -- registration ---------------------------------------------------
    def counter(self, name: str) -> Counter:
        """Get or create the counter ``name``."""
        self._check_kind(name, self._counters)
        return self._counters.setdefault(name, Counter(name))

    def gauge(self, name: str, fn: Optional[Callable[[], float]] = None) -> Gauge:
        """Get or create the gauge ``name`` (optionally callback-backed)."""
        self._check_kind(name, self._gauges)
        g = self._gauges.get(name)
        if g is None:
            g = Gauge(name, fn=fn)
            self._gauges[name] = g
        elif fn is not None:
            g.fn = fn  # re-binding a callback gauge to a fresh component
        return g

    def histogram(self, name: str, edges: Sequence[float]) -> Histogram:
        """Get or create the histogram ``name`` with the given edges."""
        self._check_kind(name, self._histograms)
        return self._histograms.setdefault(name, Histogram(name, edges))

    def _check_kind(self, name: str, own: dict) -> None:
        for kind in (self._counters, self._gauges, self._histograms):
            if kind is not own and name in kind:
                raise ValueError(f"metric {name!r} already registered as another kind")

    def warn(self, message: str) -> None:
        """Record a non-fatal accounting warning (exported with the JSON)."""
        self.warnings.append(message)

    # -- export ---------------------------------------------------------
    def as_dict(self) -> dict:
        """Materialize every metric (callback gauges are read here)."""
        return {
            "name": self.name,
            "counters": {k: c.value for k, c in sorted(self._counters.items())},
            "gauges": {k: g.value for k, g in sorted(self._gauges.items())},
            "histograms": {k: h.as_dict() for k, h in sorted(self._histograms.items())},
            "warnings": list(self.warnings),
            **self.sections,
        }

    def __len__(self) -> int:
        return len(self._counters) + len(self._gauges) + len(self._histograms)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<MetricsRegistry {self.name}: {len(self._counters)} counters, "
            f"{len(self._gauges)} gauges, {len(self._histograms)} histograms>"
        )
