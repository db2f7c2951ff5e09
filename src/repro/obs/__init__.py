"""Observability: metrics, conservation invariants, event-loop profiling.

The paper's headline results (Figures 2-4 loss-interval PDFs, Figure 7
fairness) rest on per-packet drop accounting being exact: one miscounted
drop silently skews the burstiness PDFs.  This package turns the passive
counters the simulator already keeps into an active regression fence:

``MetricsRegistry``
    Named counters / gauges / histograms with JSON export; simulator
    components register themselves via their ``register_metrics`` hooks.
``InvariantChecker``
    Verifies packet-conservation identities per queue, link, and flow —
    ``arrived == enqueued + dropped``, ``enqueued == dequeued + occupancy``,
    ``sent == arrived-at-sink + dropped + in-flight`` — at configurable
    sim-time intervals and at teardown, raising a structured
    :class:`InvariantViolation` carrying a diagnostic snapshot.
``EventLoopProfile``
    Per-callback event-loop profile (events/sec, heap size, cancelled-event
    ratio, per-callback-type timing) captured by ``Simulator.profile()``;
    armed runs export only its counter-derived totals (``loop_totals``).
``FlightRecorder`` / ``TimeSeries``
    Flight-recorder telemetry: fixed-stride samplers off the simulator
    clock into bounded (stride-decimating) time series — per-flow cwnd /
    srtt / pacing rate, queue depth, link state — plus the loss-burst
    raster (:mod:`repro.obs.telemetry`).
``SpanTracer``
    Nested phase/span tracing with point events (fault injections land
    here), exported as JSON-lines (:mod:`repro.obs.spans`).
``FlightLog`` / ``open_flight_log``
    The one writer of a run directory (manifest, telemetry, spans,
    metrics, report) and the span tracer it carries
    (:mod:`repro.obs.runtime`).
``generate_report`` / ``write_report``
    Deterministic Markdown/HTML run reports rendered from a telemetry
    run directory — ``python -m repro report <run-dir>``
    (:mod:`repro.obs.report`).

``EventBus`` / ``RunLog``
    Fleet event stream: one append-only, schema-versioned JSON-lines
    feed per campaign/zoo state directory, with torn-tail-tolerant
    tailing and structured ``--log-json`` logging (:mod:`repro.obs.bus`).
    ``read_json_tolerant`` is the one whole-file JSON read: every obs
    reader (heartbeats, ``report``, ``history``) goes through it.
``FleetAggregator`` / ``FleetSnapshot``
    Streaming aggregation of a state directory (ledger + heartbeats +
    bus) into a live fleet snapshot — what ``python -m repro top``
    renders and ``/snapshot.json`` serves (:mod:`repro.obs.aggregate`).
``ObsServer`` / ``fleet_exposition``
    Opt-in ``/metrics`` endpoint over stdlib HTTP during fleet runs —
    the CLI's ``--metrics-port`` — serving the ``repro_fleet_*`` gauges
    (:mod:`repro.obs.httpd`).

:func:`~repro.obs.runtime.observe_run` wires everything into experiment
drivers and the ``repro`` CLI (``--metrics-out`` / ``--check-invariants``
/ ``--telemetry-out`` / ``--report``).
"""

from repro.obs.aggregate import FleetAggregator, FleetSnapshot, UnitHealth
from repro.obs.bus import (
    EventBus,
    RunLog,
    TailState,
    open_bus,
    read_json_tolerant,
    tail_jsonl,
)
from repro.obs.httpd import ObsServer, fleet_exposition
from repro.obs.invariants import (
    FlowBinding,
    InvariantChecker,
    InvariantViolation,
    check_link,
    check_queue,
)
from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    atomic_write_text,
)
from repro.obs.profiling import EventLoopProfile
from repro.obs.report import (
    ReportError,
    generate_html_report,
    generate_report,
    sparkline,
    validate_report,
    write_report,
)
from repro.obs.runtime import FlightLog, RunObservation, observe_run, open_flight_log
from repro.obs.spans import SpanTracer
from repro.obs.telemetry import FlightRecorder, TimeSeries, loss_raster

__all__ = [
    "Counter",
    "EventBus",
    "EventLoopProfile",
    "FleetAggregator",
    "FleetSnapshot",
    "FlightLog",
    "FlightRecorder",
    "FlowBinding",
    "Gauge",
    "Histogram",
    "InvariantChecker",
    "InvariantViolation",
    "MetricsRegistry",
    "ObsServer",
    "ReportError",
    "RunLog",
    "RunObservation",
    "SpanTracer",
    "TailState",
    "TimeSeries",
    "UnitHealth",
    "atomic_write_text",
    "check_link",
    "check_queue",
    "fleet_exposition",
    "generate_html_report",
    "generate_report",
    "loss_raster",
    "observe_run",
    "open_bus",
    "open_flight_log",
    "read_json_tolerant",
    "sparkline",
    "tail_jsonl",
    "validate_report",
    "write_report",
]
