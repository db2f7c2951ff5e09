"""Delay-based vs loss-based congestion control (paper §5, ref. [23]).

"In [23], a delay-based algorithm is proposed and achieved better
stability and fairness."  This experiment quantifies that claim on the
Figure 1 dumbbell: the same flow population run under loss-based NewReno
and under delay-based FAST, comparing

* **losses** — FAST needs none once converged; NewReno *requires* them;
* **fairness** — Jain's index across flows with heterogeneous RTTs
  (loss-based TCP is biased ~1/RTT; FAST equalizes);
* **stability** — the coefficient of variation of each flow's window
  after convergence (sawtooth vs flat);
* **utilization** — neither may waste the link.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.core.fairness import jain_index
from repro.core.report import format_table
from repro.experiments.common import Scale, current_scale
from repro.experiments.scenario import FlowClass, Scenario, run_scenario
from repro.sim.rng import RngStreams
from repro.sim.topology import DumbbellConfig

__all__ = ["SignalOutcome", "DelayBasedResult", "delay_spec", "run_delay_based", "jain_index"]


@dataclass
class SignalOutcome:
    """One congestion signal's behaviour on the shared bottleneck."""

    label: str
    drops: int
    jain: float
    mean_window_cv: float  # mean per-flow cwnd CV after convergence
    utilization: float


@dataclass
class DelayBasedResult:
    """Loss-signal vs delay-signal outcomes, side by side."""
    loss_based: SignalOutcome
    delay_based: SignalOutcome

    def to_text(self) -> str:
        """Render the paper-shaped text block for this result."""
        rows = [
            [o.label, o.drops, round(o.jain, 3), round(o.mean_window_cv, 3),
             round(o.utilization, 3)]
            for o in (self.loss_based, self.delay_based)
        ]
        return format_table(
            ["signal", "drops", "Jain fairness", "window CV", "utilization"],
            rows,
            title="Delay-based vs loss-based congestion control (paper §5, [23])",
        )


def delay_spec(sender: str, sc: Scale, rtts) -> Scenario:
    """One ``sender`` flow per entry of ``rtts`` on the Fig. 7 link.

    Pairs are ``pair<i>``, flow ids 100+, starts in the first 0.2 s; FAST
    runs with ``alpha`` = 10 packets.  From half-way through the run every
    sender's window is sampled each 0.2 s; the run's ``extra`` holds the
    samples, one list per flow.
    """
    duration = sc.fig7_duration

    def window_sampler(sim, db, streams, flows):
        samples: list[list[float]] = [[] for _ in flows]

        def sample():
            for k, (snd, _) in enumerate(flows):
                samples[k].append(snd.cwnd)
            if sim.now < duration - 0.25:
                sim.schedule(0.2, sample)

        sim.schedule(duration / 2.0, sample)
        return samples

    bdp = DumbbellConfig(bottleneck_rate_bps=sc.fig7_capacity_bps).bdp_packets(
        float(np.mean(rtts)))
    return Scenario(
        classes=(FlowClass(sender, tuple(map(float, rtts)), "pair", start_window=0.2,
                           kwargs={"alpha": 10.0} if sender == "fast" else {}),),
        capacity_bps=sc.fig7_capacity_bps,
        # Buffer comfortably above N*alpha so the delay-based target fits.
        buffer_pkts=max(len(rtts) * 12, bdp // 2),
        duration=duration,
        bin_width=None,
        on_build=window_sampler,
    )


def _run_signal(sender: str, label: str, seed: int, sc: Scale, rtts) -> SignalOutcome:
    run = run_scenario(delay_spec(sender, sc, rtts), seed, f"delay.{sender}")
    # Jain's index is over flows: each sink's in-order bytes.
    rates = np.array([sink.stats.bytes_received for _, sink in run.flows], dtype=float)
    cvs = []
    for ws in run.extra:
        arr = np.array(ws)
        if len(arr) >= 2 and arr.mean() > 0:
            cvs.append(arr.std() / arr.mean())
    return SignalOutcome(
        label=label,
        drops=len(run.drop_fids),
        jain=jain_index(rates),
        mean_window_cv=float(np.mean(cvs)) if cvs else float("nan"),
        utilization=run.utilization,
    )


def run_delay_based(
    seed: int = 1,
    scale: Optional[Scale] = None,
    n_flows: int = 6,
    rtt_range: tuple[float, float] = (0.020, 0.120),
) -> DelayBasedResult:
    """Run both signals on an identical heterogeneous-RTT population."""
    sc = current_scale(scale)
    rtts = RngStreams(seed).stream("rtts").uniform(*rtt_range, size=n_flows)
    return DelayBasedResult(
        loss_based=_run_signal("newreno", "loss (NewReno)", seed, sc, rtts),
        delay_based=_run_signal("fast", "delay (FAST)", seed, sc, rtts),
    )
