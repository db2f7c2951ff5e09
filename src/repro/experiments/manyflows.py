"""Many-flows convergence: the packet engine vs the mean-field fluid limit.

The paper's distributed-applications implications are population
statements — what loss burstiness does to *thousands* of flows sharing
one buffer — but the packet engine costs O(N) events per RTT.  This
driver runs the same two-class scenario on both backends under the
weak-convergence scaling (capacity and buffer grown proportionally to
N, per-flow bandwidth share held fixed) and measures how fast the
stochastic packet system converges to the deterministic fluid limit
(:mod:`repro.sim.fluid`) as N grows 100 → 1k → 10k:

* **throughput share** per RTT class (the Fig. 7 observable), and
* **per-flow loss-event rate** (window cuts per second — fast
  retransmits + timeouts on the packet side, the thinned feedback rate
  ``eta`` on the fluid side).

Lautenschlaeger's weak-convergence result (PAPERS.md) predicts the gap
shrinks like the population's relative fluctuations, so the suite in
``tests/experiments/test_manyflows.py`` asserts monotonically
tightening tolerance bands.  The fluid backend's cost is O(steps),
independent of N — the ≥100x flows/s unlock the same suite asserts.

Scenario shape: two NewReno classes at 100 ms and 250 ms propagation
RTT, N/2 flows each, 800 kbps fair share per flow (per-flow BDP 10 and
25 packets), bottleneck buffer of 8 packets per flow, and a
receiver-window cap of twice the per-flow pipe on *both* backends
(without it the synchronized initial slow start overshoots into
timeout collapse, a regime the fluid model — which has no timeouts —
deliberately excludes).  Small per-flow BDPs keep windows in the
paper's loss-bursty regime; classes share one host pair each on the
packet side so object count stays O(classes) hosts + O(N) agents.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Optional

from repro.experiments.common import Scale, current_scale
from repro.experiments.scenario import FlowClass, Scenario, run_scenario
from repro.sim.fluid import FluidClass, FluidScenario, run_fluid

__all__ = [
    "CLASS_RTTS",
    "ManyFlowsCell",
    "ManyFlowsRow",
    "ManyFlowsResult",
    "packet_scenario",
    "run_manyflows_fluid",
    "run_manyflows_packet",
    "run_manyflows",
]

#: The two RTT classes (name, propagation RTT seconds).  100/250 ms
#: spans the paper's WAN regime with a 2.5x unfairness lever arm.
CLASS_RTTS: tuple[tuple[str, float], ...] = (("near", 0.100), ("far", 0.250))

SENDER = "newreno"
BUFFER_PKTS_PER_FLOW = 8
WARMUP_FRACTION = 0.3


@dataclass(frozen=True)
class ManyFlowsCell:
    """One backend's measurements at one population size."""

    backend: str  # "packet" | "fluid"
    n: int
    wall_s: float
    throughput_share: tuple[float, ...]
    class_loss_event_rate: tuple[float, ...]  # per flow, events/s
    loss_rate: float


@dataclass(frozen=True)
class ManyFlowsRow:
    """Packet-vs-fluid comparison at one population size."""

    n: int
    packet: ManyFlowsCell
    fluid: ManyFlowsCell

    @property
    def share_gap(self) -> float:
        """Max absolute per-class throughput-share difference."""
        return max(
            abs(f - p)
            for f, p in zip(self.fluid.throughput_share,
                            self.packet.throughput_share)
        )

    @property
    def loss_gap(self) -> float:
        """Max relative per-class loss-event-rate difference."""
        return max(
            abs(f - p) / p if p > 0 else float("inf")
            for f, p in zip(self.fluid.class_loss_event_rate,
                            self.packet.class_loss_event_rate)
        )

    @property
    def speedup(self) -> float:
        """Packet wall time over fluid wall time at this N."""
        return (self.packet.wall_s / self.fluid.wall_s
                if self.fluid.wall_s > 0 else float("inf"))


@dataclass
class ManyFlowsResult:
    """The convergence sweep: one row per population size."""

    class_names: tuple[str, ...]
    rows: tuple[ManyFlowsRow, ...] = field(default_factory=tuple)

    def to_text(self) -> str:
        """Render the convergence table."""
        lines = [
            "Many-flows convergence — packet engine vs mean-field fluid limit",
            f"  classes: {', '.join(self.class_names)} ({SENDER}, "
            f"rtts {'/'.join(f'{r * 1e3:.0f}ms' for _, r in CLASS_RTTS)})",
            "  N      share(pkt)      share(fluid)    gap     "
            "ev/s(pkt)    ev/s(fluid)  rel.gap  speedup",
        ]
        for row in self.rows:
            ps = "/".join(f"{s:.3f}" for s in row.packet.throughput_share)
            fs = "/".join(f"{s:.3f}" for s in row.fluid.throughput_share)
            pe = "/".join(f"{e:.2f}" for e in row.packet.class_loss_event_rate)
            fe = "/".join(f"{e:.2f}" for e in row.fluid.class_loss_event_rate)
            lines.append(
                f"  {row.n:<6d} {ps:<15s} {fs:<15s} {row.share_gap:.3f}   "
                f"{pe:<12s} {fe:<12s} {row.loss_gap:.3f}    "
                f"{row.speedup:.0f}x"
            )
        return "\n".join(lines)


def _scenario_dims(n: int, sc: Scale) -> tuple[float, int]:
    """(capacity_bps, buffer_pkts) under the weak-convergence scaling."""
    return n * sc.manyflows_per_flow_bps, BUFFER_PKTS_PER_FLOW * n


def _class_caps(sc: Scale) -> tuple[tuple[float, float], ...]:
    """Per-class (max_cwnd, initial_ssthresh), identical on both backends.

    A receiver-window cap of twice the per-flow pipe (fair-share BDP +
    buffer share) is the real-deployment bound that keeps the initial
    synchronized slow start from overshooting into timeout collapse —
    without it the packet population spends the whole run in RTO
    recovery, a regime outside the fluid model (which has no timeouts).
    """
    per_flow_pps = sc.manyflows_per_flow_bps / 8.0 / 1000.0
    caps = []
    for _, rtt in CLASS_RTTS:
        pipe = per_flow_pps * rtt + BUFFER_PKTS_PER_FLOW
        w_max = 2.0 * pipe
        caps.append((w_max, w_max / 2.0))
    return tuple(caps)


def fluid_scenario(n: int, sc: Optional[Scale] = None) -> FluidScenario:
    """The fluid half of the convergence pair at population size ``n``."""
    sc = current_scale(sc)
    capacity_bps, buffer_pkts = _scenario_dims(n, sc)
    split = _class_counts(n)
    caps = _class_caps(sc)
    return FluidScenario(
        classes=tuple(
            FluidClass(name, SENDER, n=nk, rtt=rtt,
                       w_max=w_max, ssthresh0=ssthresh0)
            for (name, rtt), nk, (w_max, ssthresh0)
            in zip(CLASS_RTTS, split, caps)
        ),
        capacity_bps=capacity_bps,
        buffer_pkts=buffer_pkts,
        duration=sc.manyflows_duration,
        dt=sc.manyflows_dt,
        warmup=WARMUP_FRACTION * sc.manyflows_duration,
    )


def _class_counts(n: int) -> tuple[int, ...]:
    """Split ``n`` flows across the RTT classes (remainder to the first)."""
    k = len(CLASS_RTTS)
    base = n // k
    counts = [base] * k
    counts[0] += n - base * k
    if min(counts) < 1:
        raise ValueError(f"need at least {k} flows for {k} classes, got {n}")
    return tuple(counts)


def run_manyflows_fluid(n: int, sc: Optional[Scale] = None) -> ManyFlowsCell:
    """Run the fluid backend at population size ``n``."""
    scn = fluid_scenario(n, sc)
    t0 = time.perf_counter()
    res = run_fluid(scn)
    wall = time.perf_counter() - t0
    return ManyFlowsCell(
        backend="fluid",
        n=n,
        wall_s=wall,
        throughput_share=res.throughput_share,
        class_loss_event_rate=res.class_loss_event_rate,
        loss_rate=res.loss_rate,
    )


def packet_scenario(n: int, sc: Optional[Scale] = None) -> Scenario:
    """The packet half of the convergence pair at population size ``n``.

    Each class shares one host pair (hosts demultiplex by flow id), so
    object count stays O(classes) hosts; access links run at 16x the
    bottleneck so they never become it.  The run's ``extra`` holds each
    flow's loss-event count (fast retransmits + timeouts) at the end of
    warm-up, which the measurement subtracts to match the fluid window.
    """
    sc = current_scale(sc)
    capacity_bps, buffer_pkts = _scenario_dims(n, sc)
    warmup = WARMUP_FRACTION * sc.manyflows_duration

    def warmup_snapshot(sim, db, streams, flows):
        base = [0] * len(flows)

        def snapshot():
            for i, (snd, _) in enumerate(flows):
                base[i] = snd.stats.fast_retransmits + snd.stats.timeouts

        sim.schedule(warmup, snapshot)
        return base

    return Scenario(
        classes=tuple(
            FlowClass(SENDER, (rtt,) * nk, name, fid_base=(k + 1) * 1_000_000,
                      start_window=0.5, shared_pair=True,
                      kwargs={"max_cwnd": w_max, "initial_ssthresh": ssthresh0})
            for k, ((name, rtt), nk, (w_max, ssthresh0))
            in enumerate(zip(CLASS_RTTS, _class_counts(n), _class_caps(sc)))
        ),
        capacity_bps=capacity_bps,
        buffer_pkts=buffer_pkts,
        duration=sc.manyflows_duration,
        bin_width=0.25,
        access_rate_bps=max(1e9, 16.0 * capacity_bps),
        on_build=warmup_snapshot,
    )


def run_manyflows_packet(
    n: int, seed: int = 1, sc: Optional[Scale] = None
) -> ManyFlowsCell:
    """Run the packet engine on the same scenario at population size ``n``."""
    sc = current_scale(sc)
    spec = packet_scenario(n, sc)
    t0 = time.perf_counter()
    run = run_scenario(spec, seed, f"manyflows.n{n}", manifest={"n": n, "scale": sc.name})
    wall = time.perf_counter() - t0

    warmup = WARMUP_FRACTION * spec.duration
    mask = run.times >= warmup
    shares = [float(mbps[mask].mean()) if mask.any() else 0.0 for mbps in run.mbps]
    total = sum(shares)
    counts = [snd.stats.fast_retransmits + snd.stats.timeouts - base
              for (snd, _), base in zip(run.flows, run.extra)]
    events, i = [], 0  # run.flows is in class order
    for c in spec.classes:
        events.append(sum(counts[i:i + len(c.rtts)]))
        i += len(c.rtts)
    measured = spec.duration - warmup
    fq = run.queue
    return ManyFlowsCell(
        backend="packet",
        n=n,
        wall_s=wall,
        throughput_share=tuple(s / total if total > 0 else 0.0 for s in shares),
        class_loss_event_rate=tuple(e / (len(c.rtts) * measured)
                                    for e, c in zip(events, spec.classes)),
        loss_rate=float(fq.dropped / fq.arrived) if fq.arrived else 0.0,
    )


def run_manyflows(
    seed: int = 1,
    scale: Optional[Scale] = None,
    ns: Optional[tuple[int, ...]] = None,
    backend: str = "both",
) -> ManyFlowsResult:
    """Run the convergence sweep over population sizes.

    ``backend`` narrows the run: ``"both"`` (default) produces the
    packet-vs-fluid comparison rows; ``"fluid"`` or ``"packet"`` run a
    single backend (the other cell is a zero-cost placeholder) for
    timing or scouting.
    """
    sc = current_scale(scale)
    sizes = tuple(ns) if ns is not None else sc.manyflows_ns
    if backend not in ("both", "packet", "fluid"):
        raise ValueError(
            f"backend must be 'both', 'packet' or 'fluid', got {backend!r}"
        )
    rows = []
    for n in sizes:
        fluid_cell = (run_manyflows_fluid(n, sc)
                      if backend in ("both", "fluid") else None)
        packet_cell = (run_manyflows_packet(n, seed=seed, sc=sc)
                       if backend in ("both", "packet") else None)
        filler = ManyFlowsCell(
            backend="none", n=n, wall_s=0.0,
            throughput_share=(0.0,) * len(CLASS_RTTS),
            class_loss_event_rate=(0.0,) * len(CLASS_RTTS),
            loss_rate=0.0,
        )
        rows.append(ManyFlowsRow(
            n=n,
            packet=packet_cell or filler,
            fluid=fluid_cell or filler,
        ))
    return ManyFlowsResult(
        class_names=tuple(name for name, _ in CLASS_RTTS),
        rows=tuple(rows),
    )
