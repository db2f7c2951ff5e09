"""Figure 2: PDF of inter-loss time at an NS-2-style simulated bottleneck.

Setup (paper §3.1, Figure 1): dumbbell with c = 100 Mbps, access-link
latencies uniform in 2–200 ms, window-based TCP flows plus 50 two-way
exponential on-off noise flows at 10% load; the router logs every drop.
Analysis: RTT-normalized inter-loss intervals, PDF at 0.02-RTT bins over
[0, 2] RTT, against a same-rate Poisson reference.

Paper observation to reproduce: **more than 95% of packet losses cluster
within periods smaller than 0.01 RTT**, far above the Poisson line at
small intervals.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.core.burstiness import fraction_within
from repro.core.intervals import intervals_from_trace
from repro.core.pdf import IntervalPdf, interval_pdf, poisson_reference_pdf
from repro.core.poisson import PoissonComparison, compare_to_poisson
from repro.core.report import pdf_figure_text
from repro.experiments.common import (
    Scale,
    add_noise_fleet,
    current_scale,
    random_rtts,
)
from repro.obs.runtime import observe_run
from repro.obs.spans import maybe_tracer, span
from repro.sim.engine import Simulator
from repro.sim.rng import RngStreams
from repro.sim.topology import DumbbellConfig, build_dumbbell
from repro.tcp.newreno import NewRenoSender
from repro.tcp.sink import TcpSink

__all__ = ["Fig2Result", "run_fig2"]


@dataclass
class Fig2Result:
    """Reproduced Figure 2 plus headline statistics."""

    pdf: IntervalPdf
    poisson: np.ndarray  # reference densities on pdf.edges
    frac_001: float  # fraction of intervals < 0.01 RTT
    frac_1: float
    comparison: PoissonComparison
    n_drops: int
    mean_rtt: float
    bottleneck_utilization: float

    def to_text(self) -> str:
        """Render the paper-shaped text block for this result."""
        return pdf_figure_text(
            self.pdf,
            self.poisson,
            "Figure 2 — PDF of inter-loss time (NS-2-style simulation)",
            frac_001=self.frac_001,
            frac_1=self.frac_1,
        )


def run_fig2(
    seed: int = 1,
    scale: Optional[Scale] = None,
    buffer_bdp_fraction: float = 0.5,
    sender_cls=NewRenoSender,
) -> Fig2Result:
    """Run the Figure 2 scenario and analyze the drop trace.

    ``buffer_bdp_fraction`` positions the bottleneck buffer within the
    paper's 1/8–2 BDP sweep (BDP computed at the mean flow RTT).
    """
    if not (0 < buffer_bdp_fraction <= 4):
        raise ValueError(f"buffer fraction out of range: {buffer_bdp_fraction}")
    sc = current_scale(scale)
    streams = RngStreams(seed)
    sim = Simulator()
    tracer = maybe_tracer("fig2", sim=sim)

    with span(tracer, "setup", seed=seed, scale=sc.name):
        rtts = random_rtts(sc.n_tcp_flows, streams)
        mean_rtt = float(rtts.mean())
        cfg = DumbbellConfig(bottleneck_rate_bps=sc.capacity_bps)
        buffer_pkts = max(4, int(cfg.bdp_packets(mean_rtt) * buffer_bdp_fraction))
        cfg.buffer_pkts = buffer_pkts
        db = build_dumbbell(sim, cfg)

        start_rng = streams.stream("starts")
        flows = []
        for i, rtt in enumerate(rtts):
            pair = db.add_pair(rtt=float(rtt), name=f"tcp{i}")
            fid = 100 + i
            snd = sender_cls(sim, pair.left, fid, pair.right.node_id, total_packets=None)
            sink = TcpSink(sim, pair.right, fid, pair.left.node_id)
            flows.append((snd, sink))
            snd.start(float(start_rng.uniform(0.0, 0.5)))

        add_noise_fleet(sim, db, streams, sc.n_noise_flows, sc.noise_load)
        obs = observe_run(
            sim, db=db, name="fig2", flows=flows, tracer=tracer,
            manifest={
                "seed": seed,
                "scale": sc.name,
                "buffer_bdp_fraction": buffer_bdp_fraction,
                "buffer_pkts": buffer_pkts,
                "sender": sender_cls.__name__,
                "mean_rtt": round(mean_rtt, 9),
            },
        )
    with span(tracer, "run", until=sc.measure_duration), obs.profiled():
        sim.run(until=sc.measure_duration)

    with span(tracer, "analyze"):
        drop_times = db.drop_trace.drop_times()
        intervals = intervals_from_trace(drop_times, mean_rtt)
        pdf = interval_pdf(intervals)
        poisson = poisson_reference_pdf(pdf.rate_per_rtt(), pdf.edges)
        result = Fig2Result(
            pdf=pdf,
            poisson=poisson,
            frac_001=fraction_within(intervals, 0.01),
            frac_1=fraction_within(intervals, 1.0),
            comparison=compare_to_poisson(intervals),
            n_drops=len(drop_times),
            mean_rtt=mean_rtt,
            bottleneck_utilization=db.bottleneck_fwd.utilization(sc.measure_duration),
        )
    obs.finalize(duration=sc.measure_duration)
    return result
