"""GridFTP/GFS-style parallel chunked transfers (paper §4.2, Figure 8).

A fixed payload is split into equal chunks, one per flow; all flows start
together over the shared dumbbell, and the transfer completes when the
*slowest* flow finishes — which is why a few flows entering congestion
avoidance prematurely (after losing slow-start packets the other flows
never saw) dominates the completion time.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Type

import numpy as np

from repro.apps.latency import lower_bound
from repro.sim.engine import Simulator
from repro.sim.topology import Dumbbell
from repro.tcp.base import TcpSender
from repro.tcp.newreno import NewRenoSender
from repro.tcp.sink import TcpSink

__all__ = ["ParallelTransferConfig", "ParallelTransferResult", "ParallelTransfer"]


@dataclass
class ParallelTransferConfig:
    """Workload definition.

    Defaults mirror the paper: 64 MB split evenly, TCP NewReno flows.
    """

    total_bytes: int = 64 * 2**20
    n_flows: int = 8
    packet_size: int = 1000
    sender_cls: Type[TcpSender] = NewRenoSender
    sender_kwargs: dict = field(default_factory=dict)
    flow_id_base: int = 1000

    def __post_init__(self):
        if self.total_bytes <= 0:
            raise ValueError("total_bytes must be positive")
        if self.n_flows <= 0:
            raise ValueError("n_flows must be positive")
        if self.packet_size <= 0:
            raise ValueError("packet_size must be positive")

    @property
    def packets_per_flow(self) -> int:
        """Equal chunking in whole packets (the last partial packet rounds
        up, as a real chunked transfer would pad or carry a short tail)."""
        per_flow_bytes = self.total_bytes / self.n_flows
        return max(1, int(np.ceil(per_flow_bytes / self.packet_size)))


@dataclass
class ParallelTransferResult:
    """Outcome of one parallel transfer."""

    config: ParallelTransferConfig
    rtt: float
    capacity_bps: float
    completion_times: list[float]  # per-flow, seconds from start
    start_time: float
    finished: bool
    timeouts: int
    retransmissions: int

    @property
    def makespan(self) -> float:
        """Slowest flow's completion (the application's latency)."""
        if not self.finished:
            return float("inf")
        return max(self.completion_times) - self.start_time

    @property
    def bound(self) -> float:
        """Theoretic lower bound on completion time (seconds)."""
        return lower_bound(self.config.total_bytes, self.capacity_bps)

    @property
    def normalized_latency(self) -> float:
        """Makespan over the theoretic lower bound (Figure 8's Y-axis)."""
        return self.makespan / self.bound


class ParallelTransfer:
    """Wire a parallel transfer onto an existing dumbbell and run it."""

    def __init__(
        self,
        sim: Simulator,
        dumbbell: Dumbbell,
        rtt: float,
        config: Optional[ParallelTransferConfig] = None,
    ):
        self.sim = sim
        self.db = dumbbell
        self.rtt = rtt
        self.config = config or ParallelTransferConfig()
        self.senders: list[TcpSender] = []
        self.sinks: list[TcpSink] = []
        self._completions: list[float] = []
        self._wire()

    def _wire(self) -> None:
        cfg = self.config
        per_flow = cfg.packets_per_flow
        for i in range(cfg.n_flows):
            pair = self.db.add_pair(rtt=self.rtt, name=f"pt{i}")
            fid = cfg.flow_id_base + i
            kwargs = dict(cfg.sender_kwargs)
            snd = cfg.sender_cls(
                self.sim,
                pair.left,
                fid,
                pair.right.node_id,
                total_packets=per_flow,
                packet_size=cfg.packet_size,
                on_complete=self._completions.append,
                **kwargs,
            )
            sink = TcpSink(self.sim, pair.right, fid, pair.left.node_id)
            self.senders.append(snd)
            self.sinks.append(sink)

    def run(self, start: float = 0.0, horizon: float = 600.0) -> ParallelTransferResult:
        """Start all flows at ``start`` and run until all complete (or the
        horizon passes)."""
        for snd in self.senders:
            snd.start(start)
        self.sim.run(until=start + horizon)
        finished = len(self._completions) == self.config.n_flows
        return ParallelTransferResult(
            config=self.config,
            rtt=self.rtt,
            capacity_bps=self.db.capacity_bps,
            completion_times=list(self._completions),
            start_time=start,
            finished=finished,
            timeouts=sum(s.stats.timeouts for s in self.senders),
            retransmissions=sum(s.stats.retransmissions for s in self.senders),
        )
