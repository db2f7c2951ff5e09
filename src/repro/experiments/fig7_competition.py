"""Figure 7: aggregate throughput of TCP Pacing vs TCP NewReno.

16 paced flows and 16 NewReno flows share a 100 Mbps / 50 ms-RTT path.
Both classes run identical window/loss-reaction logic; only the sub-RTT
emission pattern differs.  The paper reports the paced aggregate ending
up ~17% below NewReno's — the bursty loss process penalizes the class
whose packets are spread evenly.

:func:`fig7_spec` is that competition as a
:class:`~repro.experiments.scenario.Scenario`; :func:`run_fig7` runs it
and reads the two throughput series.  The same spec, with the challenger,
queue, buffer or sender kwargs swapped, is the Eq. (1)/(2) run
(:mod:`~repro.experiments.eq12_detection`), every zoo cell
(:mod:`~repro.experiments.zoo_grid`) and both ECN-fairness legs
(:mod:`repro.extensions.ecn_fairness`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.core.report import format_series
from repro.experiments.common import Scale, current_scale
from repro.experiments.scenario import FlowClass, Scenario, run_scenario
from repro.sim.topology import DumbbellConfig

__all__ = ["Fig7Result", "fig7_spec", "run_fig7"]


@dataclass
class Fig7Result:
    """Reproduced Figure 7: two aggregate-throughput time series."""

    times: np.ndarray  # bin centers (seconds)
    newreno_mbps: np.ndarray
    pacing_mbps: np.ndarray
    mean_newreno_mbps: float
    mean_pacing_mbps: float
    rtt: float
    capacity_bps: float
    duration: float

    @property
    def pacing_deficit(self) -> float:
        """Fractional throughput loss of the paced class (paper: ~0.17)."""
        if self.mean_newreno_mbps <= 0:
            return float("nan")
        return (self.mean_newreno_mbps - self.mean_pacing_mbps) / self.mean_newreno_mbps

    def to_text(self) -> str:
        """Render the paper-shaped text block for this result."""
        head = (
            "Figure 7 — Aggregate throughput, TCP Pacing vs TCP NewReno\n"
            f"  capacity={self.capacity_bps / 1e6:.0f} Mbps rtt={self.rtt * 1e3:.0f} ms "
            f"duration={self.duration:.0f} s\n"
            f"  mean aggregate: NewReno {self.mean_newreno_mbps:.2f} Mbps, "
            f"Pacing {self.mean_pacing_mbps:.2f} Mbps "
            f"(pacing deficit {self.pacing_deficit * 100:.1f}%)"
        )
        series = format_series(
            self.times,
            np.round(self.newreno_mbps, 3),
            xlabel="t(s)",
            ylabel="newreno(Mbps)",
            every=max(1, len(self.times) // 20),
        )
        series2 = format_series(
            self.times,
            np.round(self.pacing_mbps, 3),
            xlabel="t(s)",
            ylabel="pacing(Mbps)",
            every=max(1, len(self.times) // 20),
        )
        return head + "\n" + series + "\n" + series2


def fig7_spec(
    sc: Scale,
    rtt: float,
    buffer_bdp_fraction: float,
    bin_width: Optional[float],
    challenger: str = "paced",
    kwargs: Optional[dict] = None,
    **fields,
) -> Scenario:
    """The Figure 7 competition as data: ``fig7_flows_per_class`` NewReno
    flows (ids 100+, pairs ``nr<i>``) against as many ``challenger`` flows
    (ids 200+, pairs ``pc<i>``), all at ``rtt``, every sender built with
    ``kwargs``.  The buffer is ``buffer_bdp_fraction`` of the BDP at
    ``rtt`` (at least 4 packets); ``fields`` set the rest of the
    :class:`~repro.experiments.scenario.Scenario` (e.g. ``queue``)."""
    n = sc.fig7_flows_per_class
    kwargs = kwargs or {}
    bdp = DumbbellConfig(bottleneck_rate_bps=sc.fig7_capacity_bps).bdp_packets(rtt)
    return Scenario(
        classes=(FlowClass("newreno", (rtt,) * n, "nr", kwargs=kwargs),
                 FlowClass(challenger, (rtt,) * n, "pc", fid_base=200, kwargs=kwargs)),
        capacity_bps=sc.fig7_capacity_bps,
        buffer_pkts=max(4, int(bdp * buffer_bdp_fraction)),
        duration=sc.fig7_duration,
        bin_width=bin_width,
        **fields,
    )


def run_fig7(
    seed: int = 1,
    scale: Optional[Scale] = None,
    rtt: float = 0.050,
    buffer_bdp_fraction: float = 1.0,
    bin_width: float = 0.5,
) -> Fig7Result:
    """Run the Figure 7 competition and return both throughput series."""
    sc = current_scale(scale)
    run = run_scenario(
        fig7_spec(sc, rtt, buffer_bdp_fraction, bin_width), seed, "fig7",
        manifest={"scale": sc.name, "rtt": rtt, "buffer_bdp_fraction": buffer_bdp_fraction,
                  "flows_per_class": sc.fig7_flows_per_class},
    )
    return Fig7Result(
        times=run.times,
        newreno_mbps=run.mbps[0],
        pacing_mbps=run.mbps[1],
        mean_newreno_mbps=run.mean_mbps[0],
        mean_pacing_mbps=run.mean_mbps[1],
        rtt=rtt,
        capacity_bps=sc.fig7_capacity_bps,
        duration=sc.fig7_duration,
    )
