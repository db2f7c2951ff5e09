"""One Figure 1 dumbbell, described as data and built in one place.

Every simulated result of the paper comes from the same topology: classes
of TCP flows share one bottleneck of given capacity, buffer and queue
discipline, optionally against the paper's two-way on-off noise fleet.  A
:class:`Scenario` names such a run; :func:`run_scenario` builds, runs,
observes and measures it on the packet engine, and :meth:`Scenario.fluid`
is the same spec on the mean-field engine (:mod:`repro.sim.fluid`).
The figure drivers (fig2, fig3, fig7, eq12, the zoo cell, ECN fairness,
the RED sweep, both short-flow legs, the methodology comparison, the
delay-based comparison and the many-flows packet leg) are a spec plus a
view over one :class:`ScenarioRun`.

The construction rules live here and nowhere else:

* class flow ``i`` has flow id ``fid_base + i`` and host-pair name
  ``f"{tag}{i}"`` (a ``shared_pair`` class has one pair, named ``tag``);
* each flow's start is drawn uniformly from ``[0, start_window)`` on the
  ``"starts"`` stream as the flow is built, class by class;
* a non-DropTail bottleneck draws from its own stream (``aqm_stream``),
  and the Dummynet pipe's noise from ``"pipe-noise"``, so neither
  perturbs the flow starts;
* ``on_build`` runs after the flows, then the noise fleet is added;
* :func:`~repro.obs.runtime.observe_run` is wired in (metrics, invariant
  sweeps, fault injection, flight record) with ``setup`` / ``run`` /
  ``analyze`` spans;
* a run with finite flows (a ``total_packets`` bound) stops once every
  one of them has finished, at the end of a :data:`COMPLETION_POLL_S`
  slice, or at ``duration``; any other run is one ``sim.run`` to
  ``duration``.  Utilization and the flow summaries are over the time
  actually run (``sim.now``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Callable, Mapping, NamedTuple, Optional

import numpy as np

from repro.core.events import distinct_flows_per_event, event_spans
from repro.experiments.common import add_noise_fleet
from repro.obs.runtime import observe_run, open_flight_log
from repro.sim.engine import Simulator
from repro.sim.queues import Queue, make_queue
from repro.sim.rng import RngStreams
from repro.sim.topology import DumbbellConfig, build_dumbbell
from repro.sim.trace import ThroughputTrace
from repro.tcp.registry import create_sender
from repro.tcp.sink import TcpSink

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.sim.fluid import FluidScenario

__all__ = ["FlowClass", "Scenario", "ScenarioRun", "Detection", "run_scenario"]

#: Sim-seconds per ``Simulator.run`` slice of a run with finite flows.
#: Whatever is simulated after the last of them finishes is traffic nobody
#: reads, and the slice is the most of it a run can pay; finish times do
#: not depend on the slicing.
COMPLETION_POLL_S = 0.010


@dataclass(frozen=True)
class FlowClass:
    """One flow per entry of ``rtts``, each a registry ``sender`` built
    with ``kwargs`` (and its path RTT, which rate-based senders pace by).

    ``shared_pair`` puts every flow of the class on one host pair (hosts
    demultiplex by flow id), so a class of thousands of flows costs two
    hosts; its flows then share one RTT.
    """

    sender: str
    rtts: tuple[float, ...]
    tag: str
    fid_base: int = 100
    start_window: float = 0.1
    kwargs: Mapping = field(default_factory=dict)
    shared_pair: bool = False

    def __post_init__(self):
        if self.shared_pair and len(set(self.rtts)) > 1:
            raise ValueError(f"class {self.tag!r} shares one pair but has several RTTs")


@dataclass(frozen=True)
class Scenario:
    """A dumbbell run: flow classes, bottleneck, noise fleet, duration.

    ``queue`` is a :func:`repro.sim.queues.make_queue` kind built with
    ``queue_kwargs``.  ``bin_width`` is the per-class throughput bin
    (seconds); ``None`` records no throughput at all.

    ``pipe_noise`` (seconds) makes the forward bottleneck the paper's
    Dummynet pipe (§3.1): every transmission there gains a processing
    time uniform in ``[0, pipe_noise]``.  ``on_build(sim, db, streams,
    flows)`` runs once the flow classes are built, before the noise
    fleet, and adds what a class cannot say (a probe, an in-run sampler,
    a churn workload); its return value is :attr:`ScenarioRun.extra`.
    A ``(sender, sink)`` it appends to ``flows`` is observed like a class
    flow and lands in :attr:`ScenarioRun.flows`; a finite one (built with
    ``total_packets``) ends the run early once all have finished.
    """

    classes: tuple[FlowClass, ...]
    capacity_bps: float
    buffer_pkts: int
    duration: float
    queue: str = "droptail"
    queue_kwargs: Mapping = field(default_factory=dict)
    aqm_stream: str = "aqm"
    noise_flows: int = 0
    noise_load: float = 0.10
    bin_width: Optional[float] = 0.5
    access_rate_bps: float = 1e9
    pipe_noise: float = 0.0
    on_build: Optional[Callable[..., Any]] = None

    def __post_init__(self):
        if self.pipe_noise < 0:
            raise ValueError(f"pipe_noise must be non-negative, got {self.pipe_noise}")

    def fluid(self) -> "FluidScenario":
        """The same spec on the mean-field engine: one fluid class per
        flow class, which therefore needs a single RTT and no kwargs."""
        from repro.sim.fluid import FluidClass, FluidScenario

        if self.noise_flows or any(len(set(c.rtts)) != 1 or c.kwargs for c in self.classes):
            raise ValueError("a fluid scenario needs one RTT and no kwargs per class, no noise")
        if self.pipe_noise or self.on_build is not None:
            raise ValueError("a fluid scenario has no Dummynet pipe and no on_build hook")
        rtt = min(c.rtts[0] for c in self.classes)
        return FluidScenario(
            classes=tuple(FluidClass(c.tag, c.sender, n=len(c.rtts), rtt=c.rtts[0])
                          for c in self.classes),
            capacity_bps=self.capacity_bps,
            buffer_pkts=self.buffer_pkts,
            queue=self.queue,
            queue_kwargs=dict(self.queue_kwargs),
            duration=self.duration,
            # At least ~12 samples per RTT, and never coarser than 4 ms.
            dt=min(0.004, rtt / 12.0),
            warmup=0.0,
        )


class Detection(NamedTuple):
    """Eq. (1)/(2) columns of one run: loss events, mean drops per event
    (M), and per class the mean distinct flows hit per event and the drops."""

    events: int
    mean_m: float
    hits: tuple[float, ...]
    drops: tuple[int, ...]


@dataclass
class ScenarioRun:
    """What one run measured; series are per class, in class order."""

    spec: Scenario
    times: Optional[np.ndarray]  # throughput bin centres (None: no bins)
    mbps: Optional[tuple[np.ndarray, ...]]
    mean_mbps: Optional[tuple[float, ...]]
    drop_times: np.ndarray  # forward-bottleneck drops
    drop_fids: np.ndarray  # flow id of every forward-bottleneck record
    queue: Queue  # the forward bottleneck discipline, for its counters
    utilization: float  # forward bottleneck over the time run
    flows: list  # (sender, sink) per class flow in class order, then on_build's
    extra: Any  # what spec.on_build returned

    def detection(self, rtt: float) -> Detection:
        """Cluster the drops into loss events of one ``rtt`` and count the
        distinct flows of each class that every event hit."""
        spans = event_spans(self.drop_times, rtt)
        sizes = np.diff(spans)
        hits, drops = [], []
        for c in self.spec.classes:
            mask = (self.drop_fids >= c.fid_base) & (self.drop_fids < c.fid_base + len(c.rtts))
            per_event = distinct_flows_per_event(spans, self.drop_fids, record_mask=mask)
            hits.append(float(np.mean(per_event)) if len(per_event) else float("nan"))
            drops.append(int(np.sum(mask)))
        mean_m = float(sizes.mean()) if len(sizes) else float("nan")
        return Detection(len(spans) - 1, mean_m, tuple(hits), tuple(drops))


def run_scenario(
    spec: Scenario, seed: int, name: str, manifest: Optional[dict] = None
) -> ScenarioRun:
    """Build ``spec`` on the packet engine, run it, and measure it.

    ``name`` labels the observation (metrics, spans, flight record); a
    driver that makes several runs gives each a dotted name
    (``"shortflows.churn"``), which keeps each run's artifacts apart (see
    :func:`~repro.obs.runtime.observe_run`).  ``manifest`` adds to the run
    manifest, which always carries ``seed``.
    """
    streams = RngStreams(seed)
    sim = Simulator()
    flight = open_flight_log(name, {"seed": seed, **(manifest or {})}, sim=sim)

    with flight.span("setup", seed=seed):
        cfg = DumbbellConfig(bottleneck_rate_bps=spec.capacity_bps,
                             access_rate_bps=spec.access_rate_bps,
                             buffer_pkts=spec.buffer_pkts)
        db = build_dumbbell(sim, cfg)
        if spec.pipe_noise:
            fwd = db.bottleneck_fwd
            fwd.rng, fwd.max_noise = streams.stream("pipe-noise"), spec.pipe_noise
        if spec.queue != "droptail":
            # The default bottleneck is already DropTail; leaving it in
            # place keeps DropTail runs free of a queue swap.
            db.set_forward_queue(make_queue(
                spec.queue, spec.buffer_pkts, rng=streams.stream(spec.aqm_stream),
                name="bottleneck", service_rate_pps=spec.capacity_bps / 8.0 / cfg.packet_size,
                **spec.queue_kwargs,
            ))
        tp = ThroughputTrace(spec.bin_width) if spec.bin_width is not None else None
        start_rng = streams.stream("starts")
        flows = []
        for k, c in enumerate(spec.classes):
            shared = db.add_pair(rtt=c.rtts[0], name=c.tag) if c.shared_pair else None
            for i, rtt in enumerate(c.rtts):
                pair = shared or db.add_pair(rtt=rtt, name=f"{c.tag}{i}")
                fid = c.fid_base + i
                snd = create_sender(c.sender, sim, pair.left, fid, pair.right.node_id,
                                    rtt=rtt, **c.kwargs)
                flows.append((snd, TcpSink(sim, pair.right, fid, pair.left.node_id,
                                           throughput=tp)))
                if tp is not None:
                    tp.assign(fid, k)
                snd.start(float(start_rng.uniform(0.0, c.start_window)))
        extra = spec.on_build(sim, db, streams, flows) if spec.on_build is not None else None
        add_noise_fleet(sim, db, streams, spec.noise_flows, spec.noise_load)
        obs = observe_run(sim, db=db, name=name, flows=flows, flight=flight)
    finite = [snd for snd, _ in flows if snd.total_packets is not None]
    with flight.span("run", until=spec.duration), obs.profiled():
        if finite:
            t = 0.0
            while t < spec.duration and not all(s.finished for s in finite):
                t = min(t + COMPLETION_POLL_S, spec.duration)
                sim.run(until=t)
        else:
            sim.run(until=spec.duration)

    with flight.span("analyze"):
        end = sim.now
        times = mbps = mean_mbps = None
        if tp is not None:
            groups = range(len(spec.classes))
            series = [tp.series(k, until=end - 1e-9) for k in groups]
            times, mbps = series[0][0], tuple(s[1] for s in series)
            mean_mbps = tuple(tp.mean_mbps(k, end) for k in groups)
        run = ScenarioRun(
            spec, times, mbps, mean_mbps,
            drop_times=db.drop_trace.drop_times(),
            drop_fids=db.drop_trace.flow_ids,
            queue=db.forward_queue,
            utilization=db.bottleneck_fwd.utilization(end),
            flows=flows,
            extra=extra,
        )
    obs.finalize(duration=end)
    return run
