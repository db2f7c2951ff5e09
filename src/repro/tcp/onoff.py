"""Two-way exponential on-off noise sources (paper Figure 1).

The simulation and emulation scenarios add 50 on-off UDP flows per
direction with an aggregate mean rate of 10% of the bottleneck capacity.
Each source alternates exponentially-distributed ON periods (sending CBR at
a peak rate) and OFF periods (silent); the mean rate is
``peak * E[on] / (E[on] + E[off])``.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.sim.engine import Event, Simulator
from repro.sim.node import Host
from repro.sim.packet import NOISE

__all__ = ["OnOffSource", "noise_fleet_params"]


class OnOffSource:
    """Exponential on-off UDP source."""

    def __init__(
        self,
        sim: Simulator,
        host: Host,
        flow_id: int,
        dst: int,
        peak_rate_bps: float,
        mean_on: float,
        mean_off: float,
        rng: np.random.Generator,
        packet_size: int = 500,
    ):
        if peak_rate_bps <= 0:
            raise ValueError(f"peak rate must be positive, got {peak_rate_bps}")
        if mean_on <= 0 or mean_off < 0:
            raise ValueError(f"invalid on/off means: {mean_on}, {mean_off}")
        self.sim = sim
        self.host = host
        self.flow_id = flow_id
        self.dst = dst
        self.peak_rate_bps = float(peak_rate_bps)
        self.mean_on = float(mean_on)
        self.mean_off = float(mean_off)
        self.rng = rng
        self.packet_size = int(packet_size)
        self.interval = packet_size * 8.0 / peak_rate_bps
        self.on = False
        self.next_seq = 0
        self.packets_sent = 0
        self._off_until = 0.0
        self._timer: Optional[Event] = None
        self._stopped = False

    def start(self, at: float = 0.0) -> None:
        # Begin in a random phase so 50 sources do not synchronize.
        """Begin operating at absolute simulation time ``at``."""
        if self.rng.random() < self.mean_on / (self.mean_on + self.mean_off):
            self._timer = self.sim.schedule_at(at, self._begin_on)
        else:
            delay = float(self.rng.exponential(self.mean_off))
            self._timer = self.sim.schedule_at(at + delay, self._begin_on)

    def stop(self) -> None:
        """Stop operating and cancel any pending timers."""
        self._stopped = True
        if self._timer is not None:
            self._timer.cancel()
            self._timer = None

    def _begin_on(self) -> None:
        if self._stopped:
            return
        self.on = True
        duration = float(self.rng.exponential(self.mean_on))
        self._off_until = self.sim.now + duration
        self._send_tick()

    def _send_tick(self) -> None:
        if self._stopped:
            return
        now = self.sim.now
        if now >= self._off_until:
            self.on = False
            off = float(self.rng.exponential(self.mean_off))
            self._timer = self.sim.schedule(off, self._begin_on)
            return
        pkt = self.sim.alloc_packet(
            self.flow_id,
            self.next_seq,
            self.packet_size,
            kind=NOISE,
            src=self.host.node_id,
            dst=self.dst,
            created=now,
        )
        self.next_seq += 1
        self.packets_sent += 1
        self.host.send(pkt)
        self._timer = self.sim.schedule(self.interval, self._send_tick)


def noise_fleet_params(
    capacity_bps: float,
    n_flows: int = 50,
    load_fraction: float = 0.10,
    peak_to_mean: float = 4.0,
    mean_on: float = 0.5,
) -> dict:
    """Per-flow parameters for the paper's noise fleet.

    ``n_flows`` on-off sources whose aggregate mean rate is
    ``load_fraction * capacity``; each has the given peak-to-mean ratio
    (burstier noise for higher ratios) and mean ON duration.
    Returns kwargs for :class:`OnOffSource` (minus wiring + rng).
    """
    if n_flows <= 0:
        raise ValueError(f"need at least one flow, got {n_flows}")
    if not (0 < load_fraction < 1):
        raise ValueError(f"load fraction must be in (0,1), got {load_fraction}")
    if peak_to_mean <= 1.0:
        raise ValueError(f"peak-to-mean ratio must exceed 1, got {peak_to_mean}")
    mean_rate = capacity_bps * load_fraction / n_flows
    peak = mean_rate * peak_to_mean
    # duty cycle = 1 / peak_to_mean = mean_on / (mean_on + mean_off)
    mean_off = mean_on * (peak_to_mean - 1.0)
    return {
        "peak_rate_bps": peak,
        "mean_on": mean_on,
        "mean_off": mean_off,
    }
