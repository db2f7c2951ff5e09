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
from repro.experiments.common import Scale, current_scale, random_rtts
from repro.experiments.scenario import FlowClass, Scenario, run_scenario
from repro.sim.rng import RngStreams
from repro.sim.topology import DumbbellConfig

__all__ = ["Fig2Result", "fleet_spec", "run_fig2"]


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


def fleet_spec(
    seed: int, sc: Scale, buffer_bdp_fraction: float, **fields
) -> tuple[Scenario, float]:
    """The Figure 2 population as data, and its mean RTT.

    ``n_tcp_flows`` NewReno flows (ids 100+, pairs ``tcp<i>``, starts in
    the first 0.5 s) over RTTs uniform in 2–200 ms, drawn from ``seed``'s
    ``"rtts"`` stream, plus the scale's noise fleet.  The buffer is
    ``buffer_bdp_fraction`` of the BDP at the mean RTT (at least 4
    packets); ``fields`` override any field of the spec.
    """
    rtts = random_rtts(sc.n_tcp_flows, RngStreams(seed))
    mean_rtt = float(rtts.mean())
    bdp = DumbbellConfig(bottleneck_rate_bps=sc.capacity_bps).bdp_packets(mean_rtt)
    spec = Scenario(**{
        "classes": (FlowClass("newreno", tuple(map(float, rtts)), "tcp", start_window=0.5),),
        "capacity_bps": sc.capacity_bps,
        "buffer_pkts": max(4, int(bdp * buffer_bdp_fraction)),
        "duration": sc.measure_duration,
        "noise_flows": sc.n_noise_flows,
        "noise_load": sc.noise_load,
        "bin_width": None,
        **fields,
    })
    return spec, mean_rtt


def run_fig2(
    seed: int = 1,
    scale: Optional[Scale] = None,
    buffer_bdp_fraction: float = 0.5,
) -> Fig2Result:
    """Run the Figure 2 scenario and analyze the drop trace.

    ``buffer_bdp_fraction`` positions the bottleneck buffer within the
    paper's 1/8–2 BDP sweep (BDP computed at the mean flow RTT).
    """
    if not (0 < buffer_bdp_fraction <= 4):
        raise ValueError(f"buffer fraction out of range: {buffer_bdp_fraction}")
    sc = current_scale(scale)
    spec, mean_rtt = fleet_spec(seed, sc, buffer_bdp_fraction)
    run = run_scenario(spec, seed, "fig2", manifest={
        "scale": sc.name,
        "buffer_bdp_fraction": buffer_bdp_fraction,
        "buffer_pkts": spec.buffer_pkts,
        "sender": "NewRenoSender",
        "mean_rtt": round(mean_rtt, 9),
    })
    intervals = intervals_from_trace(run.drop_times, mean_rtt)
    pdf = interval_pdf(intervals)
    return Fig2Result(
        pdf=pdf,
        poisson=poisson_reference_pdf(pdf.rate_per_rtt(), pdf.edges),
        frac_001=fraction_within(intervals, 0.01),
        frac_1=fraction_within(intervals, 1.0),
        comparison=compare_to_poisson(intervals),
        n_drops=len(run.drop_times),
        mean_rtt=mean_rtt,
        bottleneck_utilization=run.utilization,
    )
