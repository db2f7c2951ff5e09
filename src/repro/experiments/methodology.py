"""Measurement-methodology comparison (paper §2 critique + future work).

One simulated bottleneck, three instruments observing its loss process:

1. **router drop trace** — the ground truth (what NS-2 gives the paper);
2. **TCP trace analysis** — Paxson-style reconstruction from the TCP
   senders' retransmission records;
3. **CBR probe** — a thin constant-bit-rate flow through the same
   bottleneck, losses reconstructed from receiver gaps (the paper's
   chosen methodology).

The paper argues (2) confounds the loss process's burstiness with TCP's
own sub-RTT burstiness and measurement timing error, while (3) samples
the process with an unbiased even comb.  This experiment quantifies the
claim: the CBR probe's burstiness statistics should sit closer to the
router's truth than the TCP-trace reconstruction's.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.core.tcptrace import MethodologyComparison, compare_methodologies, \
    reconstruct_losses_from_retransmissions
from repro.experiments.common import Scale, current_scale
from repro.experiments.fig2_ns2 import fleet_spec
from repro.experiments.scenario import Scenario, run_scenario
from repro.tcp.cbr import CbrSource
from repro.tcp.sink import ProbeSink

__all__ = ["PROBE_FLOW", "MethodologyResult", "methodology_spec", "run_methodology"]

#: Flow id of the CBR probe.
PROBE_FLOW = 777


@dataclass
class MethodologyResult:
    """Three-instrument measurement comparison for one run."""
    comparison: MethodologyComparison
    n_router_drops: int
    n_tcp_estimates: int
    n_probe_losses: int
    mean_rtt: float

    def to_text(self) -> str:
        """Render the paper-shaped text block for this result."""
        return self.comparison.to_text()


def methodology_spec(
    seed: int,
    sc: Scale,
    buffer_bdp_fraction: float = 0.5,
    probe_interval: Optional[float] = None,
) -> tuple[Scenario, float]:
    """The Figure 2 fleet plus a CBR probe pair, and the mean RTT.

    The probe pair (flow ``PROBE_FLOW``, RTT the fleet's mean) joins
    after the TCP flows and before the noise fleet and stops sending one
    drain horizon before the end; the run's ``extra`` is its
    ``(CbrSource, ProbeSink)``.  ``probe_interval`` defaults to
    whatever keeps the probe at 4% of the bottleneck (1 ms at the fast
    scale's 20 Mbps): a fixed wall-clock interval would under-sample the
    proportionally shorter drop bursts of faster links and bias the
    cross-scale comparison.
    """
    if probe_interval is None:
        probe_interval = 100 * 8.0 / (0.04 * sc.capacity_bps)

    def probe(sim, db, streams, flows):
        # The CBR probe must stay thin relative to the bottleneck: 100 B
        # every probe_interval is 0.8 Mbps at the 1 ms default — 4% of a
        # fast-scale 20 Mbps link, negligible per the paper's own
        # validation argument.  It stops one drain horizon (its RTT plus
        # a full buffer's drain time) before the run ends, so none is
        # still in flight at the end: every probe the sink misses was
        # dropped at the router.
        cfg = db.config
        horizon = mean_rtt + cfg.buffer_pkts * cfg.packet_size * 8.0 / cfg.bottleneck_rate_bps
        pair = db.add_pair(rtt=mean_rtt, name="probe")
        src = CbrSource(sim, pair.left, PROBE_FLOW, pair.right.node_id,
                        rate_bps=100 * 8 / probe_interval,  # 100 B per interval
                        packet_size=100, duration=sc.measure_duration - horizon,
                        jitter=0.0)
        sink = ProbeSink(sim, pair.right, PROBE_FLOW)
        src.start(0.0)
        return src, sink

    # probe() reads mean_rtt when the run builds it, after this binds it.
    spec, mean_rtt = fleet_spec(seed, sc, buffer_bdp_fraction, on_build=probe)
    return spec, mean_rtt


def run_methodology(
    seed: int = 1,
    scale: Optional[Scale] = None,
    buffer_bdp_fraction: float = 0.5,
    probe_interval: Optional[float] = None,
) -> MethodologyResult:
    """Run the three-instrument measurement on one congested dumbbell
    (:func:`methodology_spec`)."""
    sc = current_scale(scale)
    spec, mean_rtt = methodology_spec(seed, sc, buffer_bdp_fraction, probe_interval)
    run = run_scenario(spec, seed, "methodology", manifest={"scale": sc.name})
    src, sink = run.extra

    # Exclude the probe's own drops from the "TCP" view but keep them in
    # ground truth (the router sees everything).
    rtts = spec.classes[0].rtts
    tcp_estimates = reconstruct_losses_from_retransmissions(
        {snd.flow_id: np.asarray(snd.retx_times) for snd, _ in run.flows},
        {snd.flow_id: rtt for (snd, _), rtt in zip(run.flows, rtts)},
    )
    probe_losses = src.lost_times(sink.received_set())

    comparison = compare_methodologies(
        run.drop_times, tcp_estimates, probe_losses, rtt=mean_rtt
    )
    return MethodologyResult(
        comparison=comparison,
        n_router_drops=len(run.drop_times),
        n_tcp_estimates=len(tcp_estimates),
        n_probe_losses=len(probe_losses),
        mean_rtt=mean_rtt,
    )
