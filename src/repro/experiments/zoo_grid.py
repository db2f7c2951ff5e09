"""Protocol/AQM zoo grid: Fig. 7 + Eqs. (1)/(2) across modern stacks.

The paper's unfairness results are strictly NewReno-vs-paced over a
DropTail bottleneck.  This driver re-runs the Figure 7 throughput
competition *and* the Eq. (1)/(2) loss-event detection measurement over
the cross product {protocol} x {AQM} x {RTT class}, resolving both axes
through the registries (:func:`repro.tcp.registry.create_sender`,
:func:`repro.sim.queues.make_queue`): every cell pits a NewReno baseline
class against a challenger protocol over the cell's queue discipline.

The ``(paced, droptail)`` cell *is* the paper's Figure 7 scenario — same
topology, flow ids, and RNG stream consumption as
:func:`repro.experiments.fig7_competition.run_fig7` — so its series
reproduce the seed outputs byte-identically (a pinned test enforces
this).  The other cells answer the ROADMAP's modernization question: does
the burstiness penalty on smooth senders survive BBR's model-based rate
control, QUIC's gain-and-burst pacing, and sojourn-time AQMs that were
built to kill standing queues (and with them, the synchronized overflow
bursts the paper blames)?

Reading BBR/QUIC cells against the paper's Reno-era numbers: see
``docs/TUTORIAL.md`` — the detection-ratio column only speaks to the
paper's Eq. (1)/(2) mechanism for challengers that, like TCP Pacing,
*react per loss event*; BBR ignores individual losses by design, so for
its cells the throughput split is the meaningful number, not the ratio.

Grid cells run through the shared resilience machinery, steered by
:class:`repro.config.RunConfig`: with ``REPRO_CHECKPOINT_DIR`` set, each
completed cell streams to ``zoo.jsonl`` and an interrupted grid resumes
(identically — each cell re-derives its RNG from the run seed);
``REPRO_WORKERS`` fans cells over processes; ``REPRO_FAULTS`` arms link
flaps in every cell and ``REPRO_ON_ERROR`` polices failed cells like
campaign shards.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from repro.config import RunConfig
from repro.core.detection import DetectionModel  # noqa: F401  (re-export context)
from repro.core.events import distinct_flows_per_event, event_spans
from repro.core.report import format_table
from repro.experiments.common import Scale, current_scale
from repro.experiments.parallel import parallel_map
from repro.faults import Checkpoint, Result
from repro.obs.bus import open_bus
from repro.obs.httpd import maybe_obs_server
from repro.obs.runtime import observe_run
from repro.obs.spans import maybe_tracer, span
from repro.sim.engine import Simulator
from repro.sim.queues import make_queue
from repro.sim.rng import RngStreams
from repro.sim.topology import DumbbellConfig, build_dumbbell
from repro.sim.trace import ThroughputTrace
from repro.tcp.registry import create_sender, sender_spec
from repro.tcp.sink import TcpSink

__all__ = [
    "ZooCellResult",
    "ZooGridResult",
    "run_zoo_cell",
    "run_zoo",
    "DEFAULT_PROTOCOLS",
    "DEFAULT_AQMS",
    "DEFAULT_RTT_CLASSES",
]

#: Challenger protocols of the default grid (the baseline class is always
#: NewReno, the paper's window-based reference).
DEFAULT_PROTOCOLS = ("reno", "newreno", "paced", "quic-paced", "bbr")
#: Queue disciplines of the default grid.
DEFAULT_AQMS = ("droptail", "red", "codel", "fq-codel")
#: RTT classes: name -> propagation RTT.  "wan" is the paper's 50 ms
#: path (the pinned Fig. 7 byte-identity cell); the other three span a
#: campus switch, a metro ring, and an intercontinental path, so the
#: default grid reads the burstiness penalty across four delay regimes.
DEFAULT_RTT_CLASSES = (
    ("lan", 0.002),
    ("metro", 0.015),
    ("wan", 0.050),
    ("intercont", 0.150),
)

#: Throughput-trace groups; fid bases match run_fig7/run_eq12 so the
#: detection analysis classifies by the same id split.
GROUP_BASELINE = 0
GROUP_CHALLENGER = 1
_BASELINE_FID = 100
_CHALLENGER_FID = 200


@dataclass
class ZooCellResult:
    """One grid cell: a Fig. 7-style split plus Eq. (1)/(2) detection."""

    protocol: str
    aqm: str
    rtt_name: str
    rtt: float
    rate_based: bool
    # Fig. 7-style competition.
    mean_baseline_mbps: float
    mean_challenger_mbps: float
    # Eq. (1)/(2)-style detection.
    n_events: int
    mean_event_size: float
    measured_baseline_hits: float
    measured_challenger_hits: float
    # Queue accounting (push-time drops, dequeue-time drops, ECN marks).
    dropped: int
    dropped_head: int
    marked: int
    # Full throughput series (dropped when a cell round-trips through a
    # checkpoint record; the summary scalars are what the grid reports).
    times: Optional[np.ndarray] = None
    baseline_mbps: Optional[np.ndarray] = None
    challenger_mbps: Optional[np.ndarray] = None
    #: Which engine produced the cell: "packet" (default) or "fluid".
    backend: str = "packet"

    @property
    def challenger_deficit(self) -> float:
        """Fractional throughput shortfall of the challenger class
        (positive = the challenger loses, as the paper's paced class did)."""
        if self.mean_baseline_mbps <= 0:
            return float("nan")
        return (
            self.mean_baseline_mbps - self.mean_challenger_mbps
        ) / self.mean_baseline_mbps

    @property
    def detection_ratio(self) -> float:
        """Challenger/baseline share of flows detecting each loss event."""
        if self.measured_baseline_hits <= 0:
            return float("nan")
        return self.measured_challenger_hits / self.measured_baseline_hits

    def to_record(self) -> dict:
        """JSON-serializable summary (checkpoint record; series omitted)."""
        return {
            "protocol": self.protocol,
            "aqm": self.aqm,
            "rtt_name": self.rtt_name,
            "rtt": self.rtt,
            "rate_based": self.rate_based,
            "mean_baseline_mbps": self.mean_baseline_mbps,
            "mean_challenger_mbps": self.mean_challenger_mbps,
            "n_events": self.n_events,
            "mean_event_size": self.mean_event_size,
            "measured_baseline_hits": self.measured_baseline_hits,
            "measured_challenger_hits": self.measured_challenger_hits,
            "dropped": self.dropped,
            "dropped_head": self.dropped_head,
            "marked": self.marked,
            "backend": self.backend,
        }

    @classmethod
    def from_record(cls, rec: dict) -> "ZooCellResult":
        """Rebuild a cell from its checkpoint record."""
        return cls(**rec)


@dataclass
class ZooGridResult:
    """The full grid plus run bookkeeping."""

    cells: list[ZooCellResult]
    seed: int
    scale_name: str
    resumed: int = 0  # cells restored from a checkpoint
    failed: list[str] = None  # type: ignore[assignment]

    def __post_init__(self) -> None:
        if self.failed is None:
            self.failed = []

    def cell(self, protocol: str, aqm: str, rtt_name: str = "wan") -> ZooCellResult:
        """Look up one cell; raises ``KeyError`` when absent."""
        for c in self.cells:
            if (c.protocol, c.aqm, c.rtt_name) == (protocol, aqm, rtt_name):
                return c
        raise KeyError(f"no zoo cell ({protocol}, {aqm}, {rtt_name})")

    def to_text(self) -> str:
        """Render the grid as the paper-shaped summary table."""
        rows = []
        for c in self.cells:
            rows.append([
                c.protocol,
                c.aqm,
                c.rtt_name,
                round(c.mean_baseline_mbps, 2),
                round(c.mean_challenger_mbps, 2),
                f"{c.challenger_deficit * 100:+.1f}%",
                c.n_events,
                round(c.mean_event_size, 1),
                (f"{c.detection_ratio:.2f}"
                 if np.isfinite(c.detection_ratio) else "-"),
                c.dropped,
                c.dropped_head,
                c.marked,
            ])
        table = format_table(
            ["challenger", "aqm", "rtt", "newreno(Mbps)", "chal(Mbps)",
             "deficit", "events", "M", "L_chal/L_nr", "drop", "hdrop", "mark"],
            rows,
            title=(
                "Protocol/AQM zoo — NewReno baseline vs challenger "
                f"(seed={self.seed}, scale={self.scale_name})"
            ),
        )
        notes = [
            "paced/droptail is the paper's Fig. 7 cell (deficit ~ +17% at paper",
            "scale).  'deficit' > 0 means the challenger class loses throughput;",
            "L_chal/L_nr > 1 means more challenger flows detect each loss event",
            "(Eqs. 1-2).  hdrop = dequeue-time drops (CoDel sojourn drops,",
            "FQ-CoDel evictions); see docs/TUTORIAL.md for reading BBR/QUIC",
            "cells against the Reno-era numbers.",
        ]
        out = table + "\n" + "\n".join(notes)
        if self.resumed:
            out += f"\n[{self.resumed} cells resumed from checkpoint]"
        if self.failed:
            out += f"\n[FAILED cells: {', '.join(self.failed)}]"
        return out


def run_zoo_cell(
    seed: int,
    scale: Optional[Scale],
    protocol: str,
    aqm: str,
    rtt: float = 0.050,
    rtt_name: str = "wan",
    buffer_bdp_fraction: float = 1.0,
    bin_width: float = 0.5,
    backend: str = "packet",
) -> ZooCellResult:
    """Run one grid cell: NewReno baseline vs ``protocol`` over ``aqm``.

    Construction mirrors :func:`~repro.experiments.fig7_competition.run_fig7`
    exactly — same topology, flow-id bases, pair names, and RNG stream
    consumption order — so the ``(paced, droptail, wan)`` cell replays the
    paper's Figure 7 scenario bit-for-bit.  The AQM draws randomness from
    its own ``"aqm"`` stream, so swapping disciplines never perturbs the
    flow-start randomness (variance isolation).

    ``backend="fluid"`` runs the same cell on the mean-field engine
    (:mod:`repro.sim.fluid`) instead: protocols/AQMs without a fluid
    reduction raise :class:`~repro.sim.queues.FluidNotSupported` (the
    grid reports those cells as failed rather than silently degrading),
    and the detection columns are NaN — per-drop flow attribution is a
    packet-level concept.  Note the physics: both Fig. 7 classes share
    one RTT, and pacing differs from NewReno only *below* the RTT
    timescale, so the fluid limit predicts an equal split — the paper's
    pacing deficit is exactly the sub-RTT structure the mean-field
    limit integrates away (see docs/TUTORIAL.md §12).
    """
    sc = current_scale(scale)
    if backend == "fluid":
        return _run_zoo_cell_fluid(
            seed, sc, protocol, aqm, rtt=rtt, rtt_name=rtt_name,
            buffer_bdp_fraction=buffer_bdp_fraction, bin_width=bin_width,
        )
    if backend != "packet":
        raise ValueError(
            f"backend must be 'packet' or 'fluid', got {backend!r}"
        )
    spec = sender_spec(protocol)  # validate before simulating
    streams = RngStreams(seed)
    sim = Simulator()
    tracer = maybe_tracer(f"zoo.{protocol}.{aqm}.{rtt_name}", sim=sim)

    with span(tracer, "setup", seed=seed, protocol=protocol, aqm=aqm, rtt=rtt):
        cfg = DumbbellConfig(bottleneck_rate_bps=sc.fig7_capacity_bps)
        cfg.buffer_pkts = max(4, int(cfg.bdp_packets(rtt) * buffer_bdp_fraction))
        db = build_dumbbell(sim, cfg)
        if aqm != "droptail":
            # The default bottleneck is already DropTail; leaving it in
            # place keeps the droptail cells on run_fig7's exact path.
            db.set_forward_queue(make_queue(
                aqm,
                cfg.buffer_pkts,
                rng=streams.stream("aqm"),
                name="bottleneck",
                service_rate_pps=sc.fig7_capacity_bps / 8.0 / cfg.packet_size,
            ))
        tp = ThroughputTrace(bin_width=bin_width)

        start_rng = streams.stream("starts")
        n = sc.fig7_flows_per_class
        flows = []
        for i in range(n):
            pair = db.add_pair(rtt=rtt, name=f"nr{i}")
            fid = _BASELINE_FID + i
            snd = create_sender("newreno", sim, pair.left, fid, pair.right.node_id)
            sink = TcpSink(sim, pair.right, fid, pair.left.node_id, throughput=tp)
            tp.assign(fid, GROUP_BASELINE)
            flows.append((snd, sink))
            snd.start(float(start_rng.uniform(0.0, 0.1)))
        for i in range(n):
            pair = db.add_pair(rtt=rtt, name=f"pc{i}")
            fid = _CHALLENGER_FID + i
            snd = create_sender(protocol, sim, pair.left, fid, pair.right.node_id,
                                rtt=rtt)
            sink = TcpSink(sim, pair.right, fid, pair.left.node_id, throughput=tp)
            tp.assign(fid, GROUP_CHALLENGER)
            flows.append((snd, sink))
            snd.start(float(start_rng.uniform(0.0, 0.1)))

        obs = observe_run(
            sim, db=db, name=f"zoo.{protocol}.{aqm}.{rtt_name}", flows=flows,
            tracer=tracer,
            manifest={
                "seed": seed,
                "scale": sc.name,
                "protocol": protocol,
                "aqm": aqm,
                "rtt": rtt,
                "rtt_class": rtt_name,
                "flows_per_class": n,
            },
        )
    with span(tracer, "run", until=sc.fig7_duration), obs.profiled():
        sim.run(until=sc.fig7_duration)

    with span(tracer, "analyze"):
        t, base = tp.series(GROUP_BASELINE, until=sc.fig7_duration - 1e-9)
        _, chal = tp.series(GROUP_CHALLENGER, until=sc.fig7_duration - 1e-9)

        # Eq. (1)/(2) detection over the same run's drop trace.
        trace = db.drop_trace
        all_fids = trace.flow_ids
        spans_idx = event_spans(trace.drop_times(), rtt)
        n_ev = len(spans_idx) - 1
        sizes = np.diff(spans_idx)
        base_mask = (all_fids >= _BASELINE_FID) & (all_fids < _CHALLENGER_FID)
        chal_mask = all_fids >= _CHALLENGER_FID
        base_hits = distinct_flows_per_event(spans_idx, all_fids,
                                             record_mask=base_mask)
        chal_hits = distinct_flows_per_event(spans_idx, all_fids,
                                             record_mask=chal_mask)
        q = db.forward_queue
    obs.finalize(duration=sc.fig7_duration)

    return ZooCellResult(
        protocol=protocol,
        aqm=aqm,
        rtt_name=rtt_name,
        rtt=rtt,
        rate_based=spec.rate_based,
        mean_baseline_mbps=tp.mean_mbps(GROUP_BASELINE, sc.fig7_duration),
        mean_challenger_mbps=tp.mean_mbps(GROUP_CHALLENGER, sc.fig7_duration),
        n_events=n_ev,
        mean_event_size=float(sizes.mean()) if len(sizes) else float("nan"),
        measured_baseline_hits=(
            float(np.mean(base_hits)) if len(base_hits) else float("nan")
        ),
        measured_challenger_hits=(
            float(np.mean(chal_hits)) if len(chal_hits) else float("nan")
        ),
        dropped=q.dropped,
        dropped_head=q.dropped_head,
        marked=q.marked,
        times=t,
        baseline_mbps=base,
        challenger_mbps=chal,
    )


def _run_zoo_cell_fluid(
    seed: int,
    sc: Scale,
    protocol: str,
    aqm: str,
    rtt: float,
    rtt_name: str,
    buffer_bdp_fraction: float,
    bin_width: float,
) -> ZooCellResult:
    """The cell's mean-field twin: same dimensioning, fluid dynamics."""
    from repro.sim.fluid import FluidClass, FluidScenario, run_fluid

    spec = sender_spec(protocol)
    cfg = DumbbellConfig(bottleneck_rate_bps=sc.fig7_capacity_bps)
    buffer_pkts = max(4, int(cfg.bdp_packets(rtt) * buffer_bdp_fraction))
    n = sc.fig7_flows_per_class
    scenario = FluidScenario(
        classes=(
            FluidClass("baseline", "newreno", n=n, rtt=rtt),
            FluidClass("challenger", protocol, n=n, rtt=rtt),
        ),
        capacity_bps=sc.fig7_capacity_bps,
        buffer_pkts=buffer_pkts,
        queue=aqm,
        packet_size=cfg.packet_size,
        duration=sc.fig7_duration,
        # At least ~12 samples per RTT, and never coarser than 4 ms.
        dt=min(0.004, rtt / 12.0),
        warmup=0.0,
    )
    scenario.validate()  # FluidNotSupported surfaces before integrating
    res = run_fluid(scenario)

    # Bin the per-class delivered rate to the packet driver's cadence.
    bits_per_pkt = 8.0 * cfg.packet_size
    per_bin = max(1, int(round(bin_width / scenario.dt)))
    n_bins = res.steps // per_bin
    trimmed = res.x_trace[: n_bins * per_bin]
    binned = trimmed.reshape(n_bins, per_bin, 2).mean(axis=1)
    times = (np.arange(n_bins) + 0.5) * bin_width
    mean_mbps = res.x_trace.mean(axis=0) * bits_per_pkt / 1e6

    # Loss events: fluid drop episodes (cf. event_spans on drop traces).
    return ZooCellResult(
        protocol=protocol,
        aqm=aqm,
        rtt_name=rtt_name,
        rtt=rtt,
        rate_based=spec.rate_based,
        mean_baseline_mbps=float(mean_mbps[0]),
        mean_challenger_mbps=float(mean_mbps[1]),
        n_events=res.loss_event_count,
        mean_event_size=float("nan"),
        measured_baseline_hits=float("nan"),
        measured_challenger_hits=float("nan"),
        dropped=int(round(res.dropped_pkts)),
        dropped_head=0,
        marked=0,
        times=times,
        baseline_mbps=binned[:, 0] * bits_per_pkt / 1e6,
        challenger_mbps=binned[:, 1] * bits_per_pkt / 1e6,
        backend="fluid",
    )


def _zoo_worker(item: tuple) -> dict:
    """Picklable per-cell worker for :func:`parallel_map` fan-out."""
    seed, sc, protocol, aqm, rtt_name, rtt, backend = item
    cell = run_zoo_cell(seed, sc, protocol, aqm, rtt=rtt, rtt_name=rtt_name,
                        backend=backend)
    return cell.to_record()


def run_zoo(
    seed: int = 1,
    scale: Optional[Scale] = None,
    protocols: Sequence[str] = DEFAULT_PROTOCOLS,
    aqms: Sequence[str] = DEFAULT_AQMS,
    rtt_classes: Sequence[tuple[str, float]] = DEFAULT_RTT_CLASSES,
    backend: str = "packet",
) -> ZooGridResult:
    """Run the full grid, resuming from / streaming to a checkpoint.

    Cell order is deterministic (rtt class, protocol, aqm) and each cell
    derives every random stream from ``seed`` alone, so a resumed or
    parallel run is bit-identical to a fresh serial one.

    With ``backend="fluid"`` every cell runs on the mean-field engine;
    cells whose protocol or AQM has no fluid reduction are reported in
    ``failed`` as ``<cell> (fluid unsupported: ...)`` up front instead
    of being attempted — no silent fallback to the packet engine.
    """
    sc = current_scale(scale)
    cells_spec = [
        (rtt_name, rtt, protocol, aqm)
        for rtt_name, rtt in rtt_classes
        for protocol in protocols
        for aqm in aqms
    ]

    unsupported: dict[int, str] = {}
    if backend == "fluid":
        from repro.sim.queues import FluidNotSupported, make_fluid_law
        from repro.tcp.fluid_maps import make_fluid_map

        for i, (rtt_name, rtt, protocol, aqm) in enumerate(cells_spec):
            try:
                make_fluid_map(protocol)
                make_fluid_law(aqm, 4, service_rate_pps=1.0)
            except FluidNotSupported as exc:
                unsupported[i] = (
                    f"{protocol}/{aqm}/{rtt_name} (fluid unsupported: {exc})"
                )

    cfg = RunConfig.from_env()
    ckpt: Optional[Checkpoint] = None
    records: dict[int, dict] = {}
    bus = server = None
    if cfg.checkpoint_dir is not None:
        ckpt = Checkpoint(cfg.checkpoint_dir / "zoo.jsonl", meta={
            "kind": "zoo", "seed": seed, "scale": sc.name,
            "n": len(cells_spec),
        })
        records = ckpt.load()
        # The checkpoint directory doubles as the grid's observable state
        # directory: the event bus and the opt-in /metrics endpoint live
        # next to zoo.jsonl, so `repro top` works on zoo runs too.
        bus = open_bus(cfg.checkpoint_dir, source="zoo")
        server = maybe_obs_server(cfg.checkpoint_dir)
    resumed = len(records)

    todo_idx = [
        i for i in range(len(cells_spec))
        if i not in records and i not in unsupported
    ]
    items = [
        (seed, sc, cells_spec[i][2], cells_spec[i][3],
         cells_spec[i][0], cells_spec[i][1], backend)
        for i in todo_idx
    ]
    on_error = cfg.on_error or "raise"
    failed: list[str] = list(unsupported.values())

    def cell_label(idx: int) -> str:
        rtt_name, _, protocol, aqm = cells_spec[idx]
        return f"{protocol}/{aqm}/{rtt_name}"

    def note(res: Result) -> None:
        idx = todo_idx[res.index]
        if not res.ok:
            if bus is not None:
                bus.emit("cell.failed", i=idx, cell=cell_label(idx),
                         error=res.error_text)
            return
        records[idx] = res.value
        if ckpt is not None:
            ckpt.append(idx, res.value)
        if bus is not None:
            bus.emit("cell.done", i=idx, cell=cell_label(idx))

    if bus is not None:
        bus.emit("zoo.start", n=len(cells_spec), seed=seed, scale=sc.name,
                 resumed=resumed, pending=len(todo_idx))
    try:
        out = parallel_map(_zoo_worker, items, on_error=on_error, on_result=note)
    finally:
        if ckpt is not None:
            ckpt.close()
        if bus is not None:
            bus.close()
        if server is not None:
            server.close()

    failed += [cell_label(todo_idx[res.index]) for res in out if not res.ok]
    cells = [
        ZooCellResult.from_record(records[i])
        for i in sorted(records)
    ]
    return ZooGridResult(
        cells=cells, seed=seed, scale_name=sc.name,
        resumed=resumed, failed=failed,
    )
