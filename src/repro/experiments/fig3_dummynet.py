"""Figure 3: PDF of inter-loss time at the Dummynet-emulated bottleneck.

Same dumbbell as Figure 2 but with the three non-idealities of the
paper's Dummynet testbed (§3.1): only four RTT classes (2, 10, 50,
200 ms), random per-packet processing noise at the pipe
(``Scenario.pipe_noise``), and drop timestamps floored to the FreeBSD
1 ms clock when the trace is read.

Paper observation to reproduce: **about 80% of packet losses cluster
within periods smaller than 0.01 RTT** — lower than NS-2's 95% because
the non-ideal pipe (and the coarse clock) smears some clusters apart.
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
from repro.experiments.common import Scale, current_scale
from repro.experiments.scenario import FlowClass, Scenario, run_scenario
from repro.sim.topology import DumbbellConfig

__all__ = ["CLOCK_TICK", "PIPE_NOISE", "RTT_CLASSES", "Fig3Result", "fig3_spec",
           "quantize", "run_fig3"]

#: The paper's four emulated RTT classes (seconds).
RTT_CLASSES = (0.002, 0.010, 0.050, 0.200)
#: Resolution of every Dummynet record: the FreeBSD clock tick (seconds).
CLOCK_TICK = 1e-3
#: Upper bound of the pipe's per-packet processing time (seconds).
PIPE_NOISE = 200e-6


def quantize(t, resolution: float = CLOCK_TICK):
    """Floor ``t`` (scalar or array) to a multiple of ``resolution``."""
    if resolution <= 0:
        raise ValueError(f"resolution must be positive, got {resolution}")
    return np.floor(np.asarray(t) / resolution) * resolution


@dataclass
class Fig3Result:
    """Reproduced Figure 3 plus headline statistics; ``drop_times`` are
    the bottleneck's drops floored to the 1 ms :data:`CLOCK_TICK`."""

    pdf: IntervalPdf
    poisson: np.ndarray
    frac_001: float
    frac_1: float
    comparison: PoissonComparison
    n_drops: int
    mean_rtt: float
    drop_times: np.ndarray

    def to_text(self) -> str:
        """Render the paper-shaped text block for this result."""
        return pdf_figure_text(
            self.pdf,
            self.poisson,
            "Figure 3 — PDF of inter-loss time (Dummynet-style emulation)",
            frac_001=self.frac_001,
            frac_1=self.frac_1,
        )


def fig3_spec(sc: Scale, buffer_bdp_fraction: float = 0.5) -> tuple[Scenario, float]:
    """The Figure 3 dumbbell as data, and its mean RTT.

    ``n_tcp_flows`` NewReno flows (ids 100+, pairs ``tcp<i>``, starts in
    the first 0.5 s) cycle through :data:`RTT_CLASSES`; the buffer is
    ``buffer_bdp_fraction`` of the BDP at the classes' mean RTT (at least
    4 packets); the bottleneck is a Dummynet pipe.
    """
    mean_rtt = float(np.mean(RTT_CLASSES))
    bdp = DumbbellConfig(bottleneck_rate_bps=sc.capacity_bps).bdp_packets(mean_rtt)
    rtts = tuple(RTT_CLASSES[i % len(RTT_CLASSES)] for i in range(sc.n_tcp_flows))
    spec = Scenario(
        classes=(FlowClass("newreno", rtts, "tcp", start_window=0.5),),
        capacity_bps=sc.capacity_bps,
        buffer_pkts=max(4, int(bdp * buffer_bdp_fraction)),
        duration=sc.measure_duration,
        noise_flows=sc.n_noise_flows,
        noise_load=sc.noise_load,
        bin_width=None,
        pipe_noise=PIPE_NOISE,
    )
    return spec, mean_rtt


def run_fig3(
    seed: int = 1,
    scale: Optional[Scale] = None,
    buffer_bdp_fraction: float = 0.5,
) -> Fig3Result:
    """Run the Figure 3 scenario: Dummynet pipe, four RTT classes."""
    sc = current_scale(scale)
    spec, mean_rtt = fig3_spec(sc, buffer_bdp_fraction)
    run = run_scenario(spec, seed, "fig3", manifest={
        "scale": sc.name, "buffer_bdp_fraction": buffer_bdp_fraction})
    drop_times = quantize(run.drop_times)
    intervals = intervals_from_trace(drop_times, mean_rtt)
    pdf = interval_pdf(intervals)
    poisson = poisson_reference_pdf(pdf.rate_per_rtt(), pdf.edges)
    return Fig3Result(
        pdf=pdf,
        poisson=poisson,
        frac_001=fraction_within(intervals, 0.01),
        frac_1=fraction_within(intervals, 1.0),
        comparison=compare_to_poisson(intervals),
        n_drops=len(drop_times),
        mean_rtt=mean_rtt,
        drop_times=drop_times,
    )
