"""Figure 7: aggregate throughput of TCP Pacing vs TCP NewReno.

16 paced flows and 16 NewReno flows share a 100 Mbps / 50 ms-RTT path.
Both classes run identical window/loss-reaction logic; only the sub-RTT
emission pattern differs.  The paper reports the paced aggregate ending
up ~17% below NewReno's — the bursty loss process penalizes the class
whose packets are spread evenly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.core.report import format_series
from repro.experiments.common import Scale, current_scale
from repro.obs.runtime import observe_run
from repro.obs.spans import maybe_tracer, span
from repro.sim.engine import Simulator
from repro.sim.rng import RngStreams
from repro.sim.topology import DumbbellConfig, build_dumbbell
from repro.sim.trace import ThroughputTrace
from repro.tcp.registry import create_sender
from repro.tcp.sink import TcpSink

__all__ = ["Fig7Result", "run_fig7"]

GROUP_NEWRENO = 0
GROUP_PACING = 1


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


def run_fig7(
    seed: int = 1,
    scale: Optional[Scale] = None,
    rtt: float = 0.050,
    buffer_bdp_fraction: float = 1.0,
    bin_width: float = 0.5,
) -> Fig7Result:
    """Run the Figure 7 competition and return both throughput series."""
    sc = current_scale(scale)
    streams = RngStreams(seed)
    sim = Simulator()
    tracer = maybe_tracer("fig7", sim=sim)

    with span(tracer, "setup", seed=seed, scale=sc.name):
        cfg = DumbbellConfig(bottleneck_rate_bps=sc.fig7_capacity_bps)
        cfg.buffer_pkts = max(4, int(cfg.bdp_packets(rtt) * buffer_bdp_fraction))
        db = build_dumbbell(sim, cfg)
        tp = ThroughputTrace(bin_width=bin_width)

        start_rng = streams.stream("starts")
        n = sc.fig7_flows_per_class
        flows = []
        # Senders resolve through the protocol registry; "newreno" and
        # "paced" are the paper's two Fig. 7 classes.
        for i in range(n):
            pair = db.add_pair(rtt=rtt, name=f"nr{i}")
            fid = 100 + i
            snd = create_sender("newreno", sim, pair.left, fid, pair.right.node_id)
            sink = TcpSink(sim, pair.right, fid, pair.left.node_id, throughput=tp)
            tp.assign(fid, GROUP_NEWRENO)
            flows.append((snd, sink))
            snd.start(float(start_rng.uniform(0.0, 0.1)))
        for i in range(n):
            pair = db.add_pair(rtt=rtt, name=f"pc{i}")
            fid = 200 + i
            snd = create_sender(
                "paced", sim, pair.left, fid, pair.right.node_id, rtt=rtt
            )
            sink = TcpSink(sim, pair.right, fid, pair.left.node_id, throughput=tp)
            tp.assign(fid, GROUP_PACING)
            flows.append((snd, sink))
            snd.start(float(start_rng.uniform(0.0, 0.1)))

        obs = observe_run(
            sim, db=db, name="fig7", flows=flows, tracer=tracer,
            manifest={
                "seed": seed,
                "scale": sc.name,
                "rtt": rtt,
                "buffer_bdp_fraction": buffer_bdp_fraction,
                "flows_per_class": n,
            },
        )
    with span(tracer, "run", until=sc.fig7_duration), obs.profiled():
        sim.run(until=sc.fig7_duration)

    with span(tracer, "analyze"):
        t, nr = tp.series(GROUP_NEWRENO, until=sc.fig7_duration - 1e-9)
        _, pc = tp.series(GROUP_PACING, until=sc.fig7_duration - 1e-9)
    obs.finalize(duration=sc.fig7_duration)
    return Fig7Result(
        times=t,
        newreno_mbps=nr,
        pacing_mbps=pc,
        mean_newreno_mbps=tp.mean_mbps(GROUP_NEWRENO, sc.fig7_duration),
        mean_pacing_mbps=tp.mean_mbps(GROUP_PACING, sc.fig7_duration),
        rtt=rtt,
        capacity_bps=sc.fig7_capacity_bps,
        duration=sc.fig7_duration,
    )
