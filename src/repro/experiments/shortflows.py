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
from repro.experiments.scenario import run_scenario
from repro.sim.engine import Simulator
from repro.sim.rng import RngStreams
from repro.sim.topology import DumbbellConfig, build_dumbbell

__all__ = ["ShortFlowResult", "run_shortflows"]


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


def _long_lived(seed: int, sc: Scale) -> BurstinessSummary:
    spec, mean_rtt = fleet_spec(seed, sc, 0.5, noise_flows=0)
    run = run_scenario(spec, seed, "shortflows.longlived")
    return burstiness_summary(run.drop_times, mean_rtt)


def _churn(seed: int, sc: Scale) -> tuple[BurstinessSummary, FlowChurn]:
    streams = RngStreams(seed + 1)
    sim = Simulator()
    mean_rtt = 0.101  # midpoint of the 2-200ms range
    cfg = DumbbellConfig(bottleneck_rate_bps=sc.capacity_bps)
    cfg.buffer_pkts = max(4, cfg.bdp_packets(mean_rtt) // 2)
    db = build_dumbbell(sim, cfg)
    # Offered load ~ arrival_rate * mean_size; pick ~1.2x capacity so slow
    # starts keep colliding.
    pkts_per_sec = sc.capacity_bps / 8.0 / cfg.packet_size
    churn_cfg = ChurnConfig(arrival_rate=1.2 * pkts_per_sec / 60.0,
                            mean_flow_packets=60.0)
    churn = FlowChurn(sim, db, streams, churn_cfg)
    churn.start(0.0)
    sim.run(until=sc.measure_duration)
    churn.stop()
    return burstiness_summary(db.drop_trace.drop_times(), mean_rtt), churn


def run_shortflows(seed: int = 1, scale: Optional[Scale] = None) -> ShortFlowResult:
    """Measure drop-trace burstiness under both §3.3 workloads."""
    sc = current_scale(scale)
    longlived = _long_lived(seed, sc)
    churn_summary, churn = _churn(seed, sc)
    return ShortFlowResult(
        longlived=longlived,
        churn=churn_summary,
        churn_flows_started=churn.flows_started,
        churn_flows_completed=churn.flows_completed,
    )
