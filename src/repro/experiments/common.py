"""Shared experiment scaffolding: scale profiles and scenario helpers.

Paper-scale scenarios (100 Mbps x 40-60 s x dozens of flows) generate
millions of packet events.  Every experiment driver therefore takes a
:class:`Scale`: the default ``FAST`` profile shrinks absolute parameters
while preserving the dimensionless shape (BDP in packets per flow, flow
counts ratios, RTT spread), and ``PAPER`` uses the paper's absolute
numbers.  Select via the ``REPRO_SCALE`` environment variable
(``fast`` | ``paper``, read through :class:`repro.config.RunConfig`) or
pass a profile explicitly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.config import RunConfig
from repro.sim.engine import Simulator
from repro.sim.rng import RngStreams
from repro.sim.topology import Dumbbell
from repro.tcp.onoff import OnOffSource, noise_fleet_params
from repro.tcp.sink import UdpSink

__all__ = [
    "Scale",
    "FAST",
    "PAPER",
    "current_scale",
    "add_noise_fleet",
    "random_rtts",
]


@dataclass(frozen=True)
class Scale:
    """Absolute sizing of the paper's scenarios."""

    name: str
    # Figure 1 dumbbell.
    capacity_bps: float
    n_tcp_flows: int
    n_noise_flows: int
    noise_load: float  # fraction of capacity
    measure_duration: float  # Figures 2-3 trace length (seconds)
    # Figure 7 competition.
    fig7_capacity_bps: float
    fig7_flows_per_class: int
    fig7_duration: float
    # Figure 8 parallel transfer.
    fig8_capacity_bps: float
    fig8_total_bytes: int
    fig8_flow_counts: tuple[int, ...]
    fig8_rtts: tuple[float, ...]
    fig8_repetitions: int
    # Figure 4 campaign.
    campaign_experiments: int
    campaign_probe_duration: float
    # Many-flows convergence (fluid vs packet; see repro.experiments.manyflows).
    manyflows_ns: tuple[int, ...] = (100, 1000)
    manyflows_per_flow_bps: float = 800e3
    manyflows_duration: float = 5.0
    manyflows_dt: float = 0.004


FAST = Scale(
    name="fast",
    capacity_bps=20e6,
    n_tcp_flows=8,
    n_noise_flows=12,
    noise_load=0.10,
    measure_duration=15.0,
    fig7_capacity_bps=50e6,
    fig7_flows_per_class=8,
    fig7_duration=20.0,
    fig8_capacity_bps=20e6,
    fig8_total_bytes=8 * 2**20,
    fig8_flow_counts=(2, 4, 8, 16),
    fig8_rtts=(0.002, 0.010, 0.050, 0.200),
    fig8_repetitions=3,
    campaign_experiments=80,
    campaign_probe_duration=60.0,
    manyflows_ns=(100, 1000),
    manyflows_per_flow_bps=800e3,
    manyflows_duration=5.0,
    manyflows_dt=0.004,
)

PAPER = Scale(
    name="paper",
    capacity_bps=100e6,
    n_tcp_flows=16,
    n_noise_flows=50,
    noise_load=0.10,
    measure_duration=60.0,
    fig7_capacity_bps=100e6,
    fig7_flows_per_class=16,
    fig7_duration=40.0,
    fig8_capacity_bps=100e6,
    fig8_total_bytes=64 * 2**20,
    fig8_flow_counts=(2, 4, 8, 16, 32),
    fig8_rtts=(0.002, 0.010, 0.050, 0.200),
    fig8_repetitions=5,
    campaign_experiments=300,
    campaign_probe_duration=300.0,
    manyflows_ns=(100, 1000, 10000),
    manyflows_per_flow_bps=800e3,
    manyflows_duration=8.0,
    manyflows_dt=0.004,
)

_PROFILES = {"fast": FAST, "paper": PAPER}


def current_scale(override: Optional[Scale] = None) -> Scale:
    """Resolve the active scale: explicit override > $REPRO_SCALE > fast."""
    if override is not None:
        return override
    return _PROFILES[RunConfig.from_env().scale]


def random_rtts(n: int, streams: RngStreams, lo: float = 0.002, hi: float = 0.200) -> np.ndarray:
    """Per-flow RTTs uniform in [lo, hi] (paper §3.1: access latencies
    randomly distributed from 2 ms to 200 ms)."""
    if n <= 0:
        raise ValueError(f"n must be positive, got {n}")
    return streams.stream("rtts").uniform(lo, hi, size=n)


def add_noise_fleet(
    sim: Simulator,
    db: Dumbbell,
    streams: RngStreams,
    n_flows: int,
    load_fraction: float = 0.10,
    flow_id_base: int = 900_000,
) -> list[OnOffSource]:
    """Attach the paper's two-way exponential on-off noise (Figure 1).

    ``n_flows`` sources per direction, aggregate mean rate
    ``load_fraction * capacity`` per direction; each noise flow rides its
    own host pair with a random RTT.
    """
    if n_flows <= 0:
        return []
    params = noise_fleet_params(
        db.capacity_bps, n_flows=n_flows, load_fraction=load_fraction
    )
    rtt_rng = streams.stream("noise-rtts")
    sources: list[OnOffSource] = []
    for i in range(n_flows):
        pair = db.add_pair(rtt=float(rtt_rng.uniform(0.002, 0.200)), name=f"noise{i}")
        # Forward direction: left -> right.
        fid_f = flow_id_base + 2 * i
        src_f = OnOffSource(
            sim, pair.left, fid_f, pair.right.node_id,
            rng=streams.stream(f"noise/{i}/fwd"), **params,
        )
        UdpSink(sim, pair.right, fid_f)
        # Reverse direction: right -> left.
        fid_r = flow_id_base + 2 * i + 1
        src_r = OnOffSource(
            sim, pair.right, fid_r, pair.left.node_id,
            rng=streams.stream(f"noise/{i}/rev"), **params,
        )
        UdpSink(sim, pair.left, fid_r)
        src_f.start(0.0)
        src_r.start(0.0)
        sources.extend((src_f, src_r))
    return sources
