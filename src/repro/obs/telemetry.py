"""Flight-recorder telemetry: bounded time-series samplers on the sim clock.

The paper's claims live at sub-RTT timescales — bursty losses hitting
paced flows while window bursts slip between them (Fig. 7), parallel
chunks desynchronizing in slow-start (Fig. 8) — but end-of-run aggregates
cannot show *when* a run's numbers happened.  A :class:`FlightRecorder`
attaches fixed-stride samplers to a :class:`~repro.sim.engine.Simulator`
(via :meth:`~repro.sim.engine.Simulator.schedule_every`) and records
bounded per-flow / per-queue / per-link time series:

* flows — ``cwnd``, smoothed RTT, and the sub-RTT pacing rate
  (:meth:`repro.tcp.base.TcpSender.pacing_rate_bps`);
* queues — instantaneous depth and cumulative drops;
* links — cumulative busy time (utilization timeline) and up/down state
  (so injected flaps are visible in the record);
* the loss-burst raster — drop timestamps binned over the run
  (:func:`loss_raster`), the flight-recorder view of Figure 2's input.

Memory stays O(``max_samples``) per series on paper-scale runs: a full
:class:`TimeSeries` *decimates* (drops every second retained sample and
doubles its keep-stride), trading resolution for span like a classic
flight recorder.  When telemetry is disabled nothing is scheduled and
nothing is sampled — the no-op path costs a handful of ``None`` checks at
setup time only (bounded by ``benchmarks/test_perf_micro.py``).

Telemetry is armed by a run directory — ``REPRO_TELEMETRY_OUT`` (the
``repro`` CLI's ``--telemetry-out``), read through
:class:`repro.config.RunConfig` by :func:`repro.obs.runtime.observe_run`
— where :meth:`repro.obs.runtime.RunObservation.finalize` has the run's
:class:`~repro.obs.runtime.FlightLog` write the flight record
(``manifest.json`` / ``telemetry.json`` / ``spans.jsonl`` /
``metrics.json``).  Samplers tick every
:data:`DEFAULT_STRIDE` sim-seconds and keep :data:`DEFAULT_MAX_SAMPLES`
points per series; code that builds a :class:`FlightRecorder` itself
may pass others.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Optional, Sequence

import numpy as np

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.sim.engine import RepeatingEvent, Simulator
    from repro.sim.link import Link
    from repro.sim.queues import Queue

__all__ = [
    "TimeSeries",
    "FlightRecorder",
    "loss_raster",
    "flow_summary",
]

#: Default sim-time spacing between samples (seconds).  0.05 s resolves
#: sub-RTT structure for the FAST-scale RTT spread (2-200 ms) while
#: keeping a 60 s paper run at ~1200 offered ticks per series.
DEFAULT_STRIDE = 0.05

#: Default per-series retained-sample bound before decimation kicks in.
DEFAULT_MAX_SAMPLES = 512

#: Default bin count of the loss-burst raster.
RASTER_BINS = 120


class TimeSeries:
    """A bounded, stride-decimating time series.

    Samples are *offered* on a fixed grid; the series keeps every
    ``keep_every``-th offer.  When the retained buffer reaches
    ``max_samples`` it decimates in place — every second retained sample
    is dropped and ``keep_every`` doubles — so memory is O(max_samples)
    no matter how long the run, and the retained grid stays uniform
    (every kept timestamp is a multiple of the current effective stride).
    """

    __slots__ = ("name", "max_samples", "times", "values", "keep_every",
                 "offered", "decimations")

    def __init__(self, name: str, max_samples: int = DEFAULT_MAX_SAMPLES):
        if max_samples < 4:
            raise ValueError(f"max_samples must be >= 4, got {max_samples}")
        self.name = name
        self.max_samples = int(max_samples)
        self.times: list[float] = []
        self.values: list[float] = []
        self.keep_every = 1
        self.offered = 0
        self.decimations = 0

    def offer(self, t: float, value: float) -> bool:
        """Offer one sample; returns True if it was retained."""
        i = self.offered
        self.offered += 1
        if i % self.keep_every:
            return False
        self.times.append(float(t))
        self.values.append(float(value))
        if len(self.times) >= self.max_samples:
            # Flight-recorder decimation: halve resolution, double span.
            self.times = self.times[::2]
            self.values = self.values[::2]
            self.keep_every *= 2
            self.decimations += 1
        return True

    def __len__(self) -> int:
        return len(self.times)

    def as_dict(self, precision: int = 9) -> dict:
        """JSON-ready record of this series (floats rounded to a fixed
        precision so exports are byte-stable across platforms)."""
        return {
            "t": [round(t, precision) for t in self.times],
            "v": [round(v, precision) for v in self.values],
            "keep_every": self.keep_every,
            "offered": self.offered,
            "decimations": self.decimations,
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<TimeSeries {self.name}: {len(self.times)} kept / "
            f"{self.offered} offered, keep_every={self.keep_every}>"
        )


def loss_raster(
    drop_times: Sequence[float], duration: float, bins: int = RASTER_BINS
) -> dict:
    """Bin drop timestamps into a fixed raster over ``[0, duration]``.

    The raster is the flight-recorder view of the paper's loss process:
    bursts show up as tall isolated columns, a Poisson-like process as a
    low even carpet.  Returns a JSON-ready dict with bin edges implied by
    ``duration / bins``.
    """
    if duration <= 0:
        raise ValueError(f"duration must be positive, got {duration}")
    if bins < 1:
        raise ValueError(f"bins must be >= 1, got {bins}")
    t = np.asarray(drop_times, dtype=np.float64)
    counts, _ = np.histogram(t, bins=bins, range=(0.0, duration))
    return {
        "bins": int(bins),
        "bin_width": round(duration / bins, 9),
        "counts": [int(c) for c in counts],
        "total": int(len(t)),
    }


def flow_summary(sender, sink=None, duration: Optional[float] = None) -> dict:
    """Per-flow end-of-run summary row for the report's throughput table.

    ``goodput_mbps`` counts cumulatively acknowledged payload over the
    run duration (falls back to the flow's own completion time).
    """
    stats = sender.stats
    span = duration
    if span is None:
        span = stats.completion_time
    acked_bytes = sender.highest_acked * sender.packet_size
    goodput = (
        acked_bytes * 8.0 / span / 1e6 if span and span > 0 else float("nan")
    )
    row = {
        "flow_id": int(sender.flow_id),
        "variant": str(getattr(sender, "variant", "?")),
        "packets_sent": int(stats.packets_sent),
        "acked": int(sender.highest_acked),
        "retransmissions": int(stats.retransmissions),
        "timeouts": int(stats.timeouts),
        "goodput_mbps": round(goodput, 6) if goodput == goodput else None,
    }
    if sink is not None and hasattr(sink, "stats"):
        row["received"] = int(sink.stats.packets_received)
    return row


class FlightRecorder:
    """Fixed-stride telemetry samplers driven off the simulator clock.

    Register probes (:meth:`probe`) or component watchers
    (:meth:`watch_flow` / :meth:`watch_queue` / :meth:`watch_link`), then
    :meth:`start` the tick.  Each tick samples every probe at the current
    sim time into its bounded :class:`TimeSeries`.  The recurring tick
    rides :meth:`Simulator.schedule_every`, so it stops by itself when the
    scenario's own events drain.
    """

    def __init__(
        self,
        sim: "Simulator",
        stride: float = DEFAULT_STRIDE,
        max_samples: int = DEFAULT_MAX_SAMPLES,
    ):
        if stride <= 0:
            raise ValueError(f"stride must be positive, got {stride}")
        self.sim = sim
        self.stride = float(stride)
        self.max_samples = int(max_samples)
        self.series: dict[str, TimeSeries] = {}
        self._probes: list[tuple[TimeSeries, Callable[[], float]]] = []
        self._ticker: Optional["RepeatingEvent"] = None
        self.raster: Optional[dict] = None
        self.flows: list[dict] = []

    # -- registration ---------------------------------------------------
    def probe(self, name: str, fn: Callable[[], float]) -> TimeSeries:
        """Register a scalar probe sampled every tick as series ``name``."""
        if name in self.series:
            raise ValueError(f"telemetry series {name!r} already registered")
        ts = TimeSeries(name, max_samples=self.max_samples)
        self.series[name] = ts
        self._probes.append((ts, fn))
        return ts

    def watch_flow(self, sender) -> None:
        """Sample a TCP flow's cwnd / srtt / pacing rate every tick.

        Idempotent per flow id (re-watching is a no-op), so run wiring can
        register from several layers without coordinating.
        """
        prefix = f"flow.{sender.flow_id}"
        if f"{prefix}.cwnd" in self.series:
            return
        self.probe(f"{prefix}.cwnd", lambda: sender.cwnd)
        self.probe(f"{prefix}.srtt", lambda: sender.srtt or 0.0)
        self.probe(f"{prefix}.rate_mbps", lambda: sender.pacing_rate_bps() / 1e6)
        # Model-based senders expose extra state worth a series: BBR's
        # bottleneck-bandwidth estimate drives its whole pacing regime.
        if hasattr(sender, "btlbw_bps"):
            self.probe(f"{prefix}.btlbw_mbps", lambda: sender.btlbw_bps() / 1e6)

    def watch_queue(self, queue: "Queue") -> None:
        """Sample a queue's depth and cumulative drops every tick
        (idempotent per queue name)."""
        prefix = f"queue.{queue.name}"
        if f"{prefix}.depth" in self.series:
            return
        self.probe(f"{prefix}.depth", lambda: len(queue))
        # dropped_total folds in dequeue-time (CoDel/FQ-CoDel) drops.
        self.probe(f"{prefix}.dropped", lambda: queue.dropped_total)

    def watch_link(self, link: "Link") -> None:
        """Sample a link's busy-time accumulation and up/down state
        (idempotent per link name)."""
        prefix = f"link.{link.name}"
        if f"{prefix}.busy_time" in self.series:
            return
        self.probe(f"{prefix}.busy_time", lambda: link.busy_time)
        self.probe(f"{prefix}.up", lambda: 1.0 if link.is_up else 0.0)

    # -- sampling -------------------------------------------------------
    def start(self) -> None:
        """Arm the periodic tick (idempotent)."""
        if self._ticker is None:
            self.sample()  # t=now baseline so every series starts aligned
            self._ticker = self.sim.schedule_every(self.stride, self.sample)

    def stop(self) -> None:
        """Cancel the periodic tick (idempotent)."""
        if self._ticker is not None:
            self._ticker.cancel()
            self._ticker = None

    def sample(self) -> None:
        """Sample every registered probe at the current sim time."""
        now = self.sim.now
        for ts, fn in self._probes:
            ts.offer(now, fn())

    # -- finalization ---------------------------------------------------
    def set_raster(self, drop_times: Sequence[float], duration: float) -> None:
        """Attach the loss-burst raster computed from a drop trace."""
        self.raster = loss_raster(drop_times, duration)

    def add_flow_summary(self, sender, sink=None, duration: Optional[float] = None) -> None:
        """Append one per-flow summary row (report throughput table)."""
        self.flows.append(flow_summary(sender, sink=sink, duration=duration))

    def as_dict(self) -> dict:
        """JSON-ready flight record (series sorted by name)."""
        return {
            "stride": self.stride,
            "max_samples": self.max_samples,
            "series": {k: self.series[k].as_dict() for k in sorted(self.series)},
            "raster": self.raster,
            "flows": sorted(self.flows, key=lambda r: r["flow_id"]),
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<FlightRecorder {len(self.series)} series "
            f"stride={self.stride}s>"
        )
