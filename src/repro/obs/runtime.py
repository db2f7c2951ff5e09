"""Run-level observability wiring for experiment drivers and the CLI.

Every run directory is written by one :class:`FlightLog`: the run
manifest, the span tracer and, at ``finalize()``, the flight record
(``manifest.json`` / ``telemetry.json`` / ``spans.jsonl`` /
``metrics.json``, plus ``report.md`` when auto-reporting is on).
:func:`open_flight_log` builds it.  Drivers with no single simulator
(the fig8 grid, the fig4 and sharded campaigns) use the log alone, with
wall-clock spans and fault events relayed parent-side.

:func:`observe_run` is the one-line hook a simulator-driven run calls
after building its scenario: it resolves the observability configuration
(explicit arguments > :class:`repro.config.RunConfig`), attaches a
:class:`~repro.obs.metrics.MetricsRegistry` to the simulator / links /
queues / flows, arms periodic conservation checks and, with telemetry
on, the :class:`~repro.obs.telemetry.FlightRecorder` samplers, and hands
back a :class:`RunObservation` whose ``profiled()`` context wraps the
``sim.run`` call and whose ``finalize()`` performs the teardown invariant
sweep, writes the metrics JSON and hands the samples and metrics to the
run's :class:`FlightLog` to write.

Configuration comes from :class:`repro.config.RunConfig` (the ``repro``
CLI's flags set its ``REPRO_*`` variables): ``metrics_out`` names the
metrics JSON, ``check_invariants`` verifies conservation every
:data:`DEFAULT_CHECK_INTERVAL` sim-seconds and at teardown,
``fault_seed`` arms a sampled :class:`repro.faults.FaultPlan` on the
run's bottleneck links (injected drops are accounted separately, so the
invariants hold with injection armed), ``telemetry_out`` arms the flight
recorder and names its run directory, and ``report`` renders
``report.md`` there at finalize.

When no knob is on, :func:`observe_run` returns a disabled observation
whose every method is a cheap no-op, so instrumented drivers cost nothing
by default (bound enforced by ``benchmarks/test_perf_micro.py``).
"""

from __future__ import annotations

import contextlib
import json
from pathlib import Path
from time import perf_counter
from typing import TYPE_CHECKING, Iterable, Optional, Union

from repro.config import RunConfig
from repro.obs.invariants import InvariantChecker
from repro.obs.metrics import MetricsRegistry, atomic_write_text
from repro.obs.profiling import loop_totals
from repro.obs.spans import SpanTracer
from repro.obs.telemetry import FlightRecorder

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.sim.engine import Simulator
    from repro.sim.topology import Dumbbell

__all__ = [
    "observe_run",
    "RunObservation",
    "FlightLog",
    "open_flight_log",
]

#: Sim-time spacing of periodic conservation sweeps (seconds).
DEFAULT_CHECK_INTERVAL = 1.0


def _run_config(name: str) -> RunConfig:
    """The run's configuration; a dotted ``name`` (one of a driver's
    several runs) gets its own artifact paths (:meth:`RunConfig.named`)."""
    cfg = RunConfig.from_env()
    return cfg.named(name) if "." in name else cfg


class FlightLog:
    """One run's flight record: manifest, span tracer and run directory.

    Disabled logs (telemetry off: no ``run_dir``, no ``tracer``) are
    inert: ``span()`` is a null context, ``event()`` does nothing and
    ``finalize()`` returns ``None``.
    """

    def __init__(
        self,
        name: str,
        manifest: Optional[dict] = None,
        run_dir: Optional[Union[str, Path]] = None,
        tracer: Optional[SpanTracer] = None,
    ):
        self.name = name
        self.manifest = dict(manifest or {})
        self.run_dir = Path(run_dir) if run_dir else None
        self.tracer = tracer
        #: Optional telemetry payload (the recorder's samples, or e.g.
        #: aggregated per-cell series) exported as ``telemetry.json``.
        self.telemetry: Optional[dict] = None

    def span(self, name: str, **attrs):
        """A tracer span when tracing is armed, else a null context."""
        if self.tracer is None:
            return contextlib.nullcontext()
        return self.tracer.span(name, **attrs)

    def event(self, name: str, **attrs) -> None:
        """Record a point event (no-op when tracing is off)."""
        if self.tracer is not None:
            self.tracer.event(name, **attrs)

    def finalize(self, metrics_text: Optional[str] = None) -> Optional[Path]:
        """Write the run directory, each artifact atomically (``None``
        when disabled)."""
        run_dir = self.run_dir
        if run_dir is None:
            return None
        manifest = {
            "name": self.name, "env": RunConfig.manifest_env(), **self.manifest
        }
        atomic_write_text(
            run_dir / "manifest.json",
            json.dumps(manifest, indent=2, sort_keys=True) + "\n",
        )
        if self.telemetry is not None:
            atomic_write_text(
                run_dir / "telemetry.json",
                json.dumps(self.telemetry, indent=2, sort_keys=True) + "\n",
            )
        if self.tracer is not None:
            self.tracer.write_jsonl(run_dir / "spans.jsonl")
        if metrics_text is not None:
            atomic_write_text(run_dir / "metrics.json", metrics_text)
        if RunConfig.from_env().report:
            from repro.obs.report import write_report

            write_report(run_dir)
        return run_dir


def open_flight_log(
    name: str, manifest: Optional[dict] = None, sim: Optional["Simulator"] = None
) -> FlightLog:
    """The run's :class:`FlightLog`: armed when telemetry is, else inert
    (the same zero-cost contract as :func:`observe_run`'s disabled path).

    ``sim`` stamps spans and events with its clock; parent-side drivers
    without one get wall-clock-only spans.  A dotted ``name`` writes to
    its own run directory (:meth:`RunConfig.named`).
    """
    run_dir = _run_config(name).telemetry_out
    if run_dir is None:
        return FlightLog(name)
    return FlightLog(name, manifest, run_dir, SpanTracer(name, sim=sim))


class RunObservation:
    """Handle tying one experiment run to its metrics/invariants/profile
    and its :class:`FlightLog`.

    Disabled instances (``enabled=False``) are inert: ``profiled()`` is a
    null context and ``finalize()`` returns ``None`` — drivers call both
    unconditionally.
    """

    def __init__(
        self,
        sim: "Simulator",
        flight: FlightLog,
        registry: Optional[MetricsRegistry] = None,
        checker: Optional[InvariantChecker] = None,
        metrics_path: Optional[Union[str, Path]] = None,
        recorder: Optional[FlightRecorder] = None,
    ):
        self.sim = sim
        self.flight = flight
        self.registry = registry
        self.checker = checker
        self.metrics_path = Path(metrics_path) if metrics_path else None
        self.enabled = registry is not None
        self.profile_stats: Optional[dict] = None
        self.fault_plan = None  # armed by observe_run when $REPRO_FAULTS is set
        self._duration_links: list = []
        self.recorder = recorder
        self._flows: list[tuple] = []
        self.db: Optional["Dumbbell"] = None  # set by observe_run

    # -- wiring ---------------------------------------------------------
    def watch_link(self, link) -> None:
        """Track a link's metrics and conservation (no-op when disabled)."""
        if not self.enabled:
            return
        assert self.registry is not None
        link.attach_metrics(self.registry)
        self._duration_links.append(link)
        if self.checker is not None:
            self.checker.add_link(link)
        if self.recorder is not None:
            self.recorder.watch_link(link)
            self.recorder.watch_queue(link.queue)

    def watch_flow(self, sender, sink=None, drop_traces: Iterable = (),
                   traces_complete: bool = False) -> None:
        """Track a TCP flow's metrics and conservation (no-op when disabled)."""
        if not self.enabled:
            return
        assert self.registry is not None
        sender.attach_metrics(self.registry)
        self._flows.append((sender, sink))
        if self.checker is not None:
            self.checker.add_flow(
                sender, sink=sink, drop_traces=drop_traces,
                traces_complete=traces_complete,
            )
        if self.recorder is not None:
            self.recorder.watch_flow(sender)

    # -- execution ------------------------------------------------------
    def profiled(self):
        """Context manager for the run's main ``sim.run`` call: captures
        event-loop totals into the metrics export when enabled.

        The ``event_loop`` section is read from counters the engine keeps
        anyway (see :func:`~repro.obs.profiling.loop_totals`), plus one
        clock read at each end of the block, so arming it costs nothing
        per event.  ``Simulator.profile()`` is the per-callback profiler.
        """
        if not self.enabled:
            return contextlib.nullcontext()
        return self._profiled_impl()

    @contextlib.contextmanager
    def _profiled_impl(self):
        if self.recorder is not None:
            self.recorder.start()
        sim = self.sim
        events, now = sim.events_processed, sim.now
        cancelled, compactions = sim.cancelled_popped, sim.compactions
        t0 = perf_counter()
        try:
            yield
        finally:
            self.profile_stats = loop_totals(
                sim.events_processed - events,
                perf_counter() - t0,
                sim.now - now,
                sim.cancelled_popped - cancelled,
                sim.compactions - compactions,
            )

    def finalize(
        self, duration: Optional[float] = None, db: Optional["Dumbbell"] = None
    ) -> Optional[dict]:
        """Teardown: final invariant sweep, utilization gauges, JSON write,
        and (telemetry armed) the flight-record run directory.

        Raises :class:`~repro.obs.InvariantViolation` if a conservation
        identity fails.  Returns the exported metrics dict (``None`` when
        disabled).
        """
        if not self.enabled:
            return None
        assert self.registry is not None
        if duration is not None and duration > 0:
            for link in self._duration_links:
                self.registry.gauge(f"link.{link.name}.utilization").set(
                    link.utilization(duration)
                )
        if self.checker is not None:
            self.checker.final_check(self.sim)
            self.registry.sections["invariants"] = self.checker.snapshots()
        if self.profile_stats is not None:
            self.registry.sections["event_loop"] = self.profile_stats
        if self.fault_plan is not None:
            self.registry.sections["faults"] = {
                "plan": self.fault_plan.describe(),
                "injected": dict(self.fault_plan.injected),
            }
        if self.recorder is not None:
            self.recorder.stop()
            if db is None:
                db = self.db
            trace = db.drop_trace if db is not None else None
            if trace is not None and duration is not None and duration > 0:
                self.recorder.set_raster(trace.drop_times(), duration)
            for sender, sink in self._flows:
                self.recorder.add_flow_summary(sender, sink=sink, duration=duration)
        # Materialize (every callback gauge read) and encode once; both
        # metrics files are written from the same text.
        data = self.registry.as_dict()
        text = json.dumps(data, indent=2) + "\n"
        if self.metrics_path is not None:
            atomic_write_text(self.metrics_path, text)
        flight = self.flight
        if flight.run_dir is not None:
            flight.manifest = {"duration": duration, **flight.manifest}
            if self.fault_plan is not None:
                flight.manifest["fault_plan"] = self.fault_plan.describe()
            if self.recorder is not None:
                flight.telemetry = self.recorder.as_dict()
            flight.finalize(text)
        return data


def observe_run(
    sim: "Simulator",
    db: Optional["Dumbbell"] = None,
    name: str = "run",
    flows: Iterable[tuple] = (),
    metrics_out: Optional[Union[str, Path]] = None,
    check_invariants: Optional[bool] = None,
    check_interval: Optional[float] = None,
    flight: Optional[FlightLog] = None,
) -> RunObservation:
    """Wire observability into one experiment run.

    Call after the scenario is fully built (topology, flows) and before
    ``sim.run``.  ``flows`` is an iterable of ``(sender, sink)`` pairs;
    with a dumbbell they are bound to the forward bottleneck drop trace,
    making their teardown conservation check exact.  Arguments left at
    ``None`` fall back to :class:`repro.config.RunConfig` (see module
    docstring; ``check_interval`` to :data:`DEFAULT_CHECK_INTERVAL`); when
    everything is off, the returned observation is disabled and free.

    A dotted ``name`` (``"shortflows.churn"``, ``"manyflows.n100"``)
    marks one of a driver's several runs: its configured metrics file and
    run directory take the name (:meth:`RunConfig.named`), so every run
    keeps its own artifacts.  A driver's only run (``"fig2"``) writes the
    configured paths as they are.

    ``flight`` is the run's :class:`FlightLog` (default:
    ``open_flight_log(name, sim=sim)``); the driver opens it first when
    it traces its own phases or seeds the manifest.  Fault injections
    recorded by the armed plan become span events on it, and
    ``finalize()`` writes the run directory through it.
    """
    cfg = _run_config(name)
    if metrics_out is None:
        metrics_out = cfg.metrics_out
    if check_invariants is None:
        check_invariants = cfg.check_invariants
    if check_interval is None:
        check_interval = DEFAULT_CHECK_INTERVAL
    if flight is None:
        flight = open_flight_log(name, sim=sim)

    from repro.faults.plan import FaultPlan

    fault_plan = None
    if cfg.fault_seed is not None and db is not None:
        # Arm reproducible link flaps on the bottleneck pair.  This works
        # with or without the metrics/invariant layer: injection is a
        # scenario input, observability an optional lens on it.
        fault_plan = FaultPlan.sample_sim(cfg.fault_seed)
        fault_plan.arm_links(sim, (db.bottleneck_fwd, db.bottleneck_rev))
        if flight.tracer is not None:
            # Every injection the plan records becomes a span event,
            # stamped with the tracer's (sim) clock at injection time.
            fault_plan.add_observer(
                lambda kind, amount: flight.event(f"fault.{kind}", count=amount)
            )

    if not metrics_out and not check_invariants and flight.run_dir is None:
        obs = RunObservation(sim, flight)
        obs.fault_plan = fault_plan
        return obs

    registry = MetricsRegistry(name)
    if fault_plan is not None:
        fault_plan.attach_metrics(registry)
    sim.attach_metrics(registry)
    checker = InvariantChecker(registry) if check_invariants else None
    recorder = FlightRecorder(sim) if flight.run_dir is not None else None
    obs = RunObservation(
        sim, flight, registry=registry, checker=checker,
        metrics_path=metrics_out, recorder=recorder,
    )
    obs.fault_plan = fault_plan
    obs.db = db

    if db is not None:
        obs.watch_link(db.bottleneck_fwd)
        obs.watch_link(db.bottleneck_rev)
        if checker is not None:
            for pair in db.pairs:
                for link in pair.links:
                    checker.add_link(link)
        for sender, sink in flows:
            obs.watch_flow(
                sender, sink=sink,
                drop_traces=(db.drop_trace,),
                # The forward bottleneck is the only finite buffer on the
                # data path, so its trace covers every possible data drop.
                traces_complete=True,
            )
    else:
        for sender, sink in flows:
            obs.watch_flow(sender, sink=sink)

    if checker is not None and check_interval and check_interval > 0:
        checker.attach(sim, check_interval)
    return obs
