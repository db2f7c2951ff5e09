"""Slow-start churn vs long-lived flows as burstiness sources (paper §3.3).

The paper names two sources of sub-RTT loss burstiness: the DropTail
discipline under long-lived congestion-avoidance flows, and the slow-start
overshoot of short flows ("even harder to be eliminated").  This driver
measures the drop-trace burstiness under each workload separately:

* **long-lived** — the Figure 2 population (persistent NewReno flows);
* **churn** — nothing but Poisson arrivals of short slow-start-dominated
  transfers.

Both must exhibit the sub-RTT clustering; the churn case shows that the
burstiness does not depend on long-lived sawtooth synchronization.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.apps.churn import ChurnConfig, FlowChurn
from repro.core.burstiness import BurstinessSummary, burstiness_summary
from repro.core.report import format_table
from repro.experiments.common import Scale, current_scale
from repro.experiments.fig2_ns2 import fleet_spec
from repro.experiments.scenario import Scenario, run_scenario
from repro.sim.topology import DumbbellConfig

__all__ = ["ShortFlowResult", "churn_spec", "run_shortflows"]


@dataclass
class ShortFlowResult:
    """Burstiness of the long-lived vs churn workloads."""
    longlived: BurstinessSummary
    churn: BurstinessSummary
    churn_flows_started: int
    churn_flows_completed: int

    def to_text(self) -> str:
        """Render the paper-shaped text block for this result."""
        rows = [
            [label, s.n_losses, round(s.frac_within_001, 3), round(s.cv, 1),
             round(s.mean_burst_size, 1), s.max_burst_size]
            for label, s in (("long-lived", self.longlived), ("churn", self.churn))
        ]
        head = format_table(
            ["workload", "drops", "<0.01 RTT", "CV", "mean burst", "max burst"],
            rows,
            title="Loss burstiness by workload (paper §3.3 sources)",
        )
        return head + (
            f"\nchurn: {self.churn_flows_started} short flows started, "
            f"{self.churn_flows_completed} completed"
        )


def churn_spec(sc: Scale) -> tuple[Scenario, float]:
    """The churn workload as data, and the RTT it is normalized by.

    No flow classes: Poisson arrivals of short NewReno transfers
    (:class:`~repro.apps.churn.FlowChurn`, offered load ~1.2x capacity
    so slow starts keep colliding) over a half-BDP buffer at the 2-200 ms
    midpoint RTT.  The run's ``extra`` is the ``FlowChurn``.
    """
    mean_rtt = 0.101  # midpoint of the 2-200ms range
    cfg = DumbbellConfig(bottleneck_rate_bps=sc.capacity_bps)
    pkts_per_sec = sc.capacity_bps / 8.0 / cfg.packet_size
    churn_cfg = ChurnConfig(arrival_rate=1.2 * pkts_per_sec / 60.0,
                            mean_flow_packets=60.0)

    def churn(sim, db, streams, flows):
        workload = FlowChurn(sim, db, streams, churn_cfg)
        workload.start(0.0)
        return workload

    spec = Scenario(classes=(), capacity_bps=sc.capacity_bps,
                    buffer_pkts=max(4, cfg.bdp_packets(mean_rtt) // 2),
                    duration=sc.measure_duration, bin_width=None, on_build=churn)
    return spec, mean_rtt


def run_shortflows(seed: int = 1, scale: Optional[Scale] = None) -> ShortFlowResult:
    """Measure drop-trace burstiness under both §3.3 workloads: the
    Figure 2 fleet without noise, then the churn leg on ``seed + 1``."""
    sc = current_scale(scale)
    fleet, fleet_rtt = fleet_spec(seed, sc, 0.5, noise_flows=0)
    longlived = run_scenario(fleet, seed, "shortflows.longlived")
    arrivals, churn_rtt = churn_spec(sc)
    churn = run_scenario(arrivals, seed + 1, "shortflows.churn")
    return ShortFlowResult(
        longlived=burstiness_summary(longlived.drop_times, fleet_rtt),
        churn=burstiness_summary(churn.drop_times, churn_rtt),
        churn_flows_started=churn.extra.flows_started,
        churn_flows_completed=churn.extra.flows_completed,
    )
