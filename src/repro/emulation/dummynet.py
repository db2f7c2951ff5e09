"""Dummynet-equivalent emulation substrate.

The paper's second environment (§3.1) is a Dummynet testbed: the Figure 1
dumbbell, but (a) the traffic uses only four RTT classes — 2, 10, 50,
200 ms; (b) the router is a real FreeBSD box whose packet processing adds
noise; (c) drop timestamps have 1 ms resolution.

This module reproduces those three non-idealities on top of
:mod:`repro.sim`:

* :class:`QuantizedDropTrace` floors record timestamps to the clock tick;
* :class:`NoisyLink` adds random per-packet processing time before
  transmission (an emulation artifact, not a queueing property);
* :func:`build_dummynet_dumbbell` assembles the four-class topology.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from repro.emulation.clock import quantize
from repro.sim.engine import Simulator
from repro.sim.link import Link
from repro.sim.packet import Packet
from repro.sim.queues import EnqueueResult
from repro.sim.topology import Dumbbell, DumbbellConfig
from repro.sim.trace import DropTrace

__all__ = [
    "QuantizedDropTrace",
    "NoisyLink",
    "DummynetConfig",
    "build_dummynet_dumbbell",
    "RTT_CLASSES",
]

#: The paper's four emulated RTT classes (seconds).
RTT_CLASSES = (0.002, 0.010, 0.050, 0.200)


class QuantizedDropTrace(DropTrace):
    """Drop trace whose timestamps are floored to the clock resolution."""

    def __init__(self, resolution: float = 1e-3, name: str = "drops"):
        super().__init__(name=name)
        if resolution <= 0:
            raise ValueError(f"resolution must be positive, got {resolution}")
        self.resolution = float(resolution)

    def record(self, pkt: Packet, now: float, marked: bool = False) -> None:
        """Append one record at the given timestamp."""
        super().record(pkt, float(quantize(now, self.resolution)), marked=marked)


class NoisyLink(Link):
    """Link with random per-packet processing delay.

    Emulates the FreeBSD forwarding path: each packet occupies the
    transmitter for its serialization time *plus* a uniformly distributed
    processing overhead in ``[0, max_noise]`` seconds.
    """

    def __init__(self, *args, rng: np.random.Generator, max_noise: float = 200e-6, **kw):
        super().__init__(*args, **kw)
        if max_noise < 0:
            raise ValueError(f"max_noise must be non-negative, got {max_noise}")
        self.rng = rng
        self.max_noise = float(max_noise)

    # Link.send / Link._transmission_done with the noise draw added to the
    # transmit step, at the same two points the base class spells it.
    def send(self, pkt: Packet) -> EnqueueResult:
        """Offer a packet to the link (see :meth:`Link.send`)."""
        sim = self.sim
        now = sim.now
        self.packets_offered += 1
        if self.arrival_trace is not None:
            self.arrival_trace.record(pkt, now)
        if not self.is_up:
            self.packets_dropped_down += 1
            if self.drop_trace is not None:
                self.drop_trace.record(pkt, now, marked=False)
            sim.free_packet(pkt)
            return EnqueueResult.DROPPED
        if not self.busy and not self.queue:
            self.busy = True
            tx_time = pkt.size * 8.0 / self.rate_bps
            if self.max_noise > 0:
                tx_time += float(self.rng.random()) * self.max_noise
            self.busy_time += tx_time
            sim.schedule_fast(tx_time, self._transmission_done, pkt)
            return EnqueueResult.ENQUEUED
        result = self.queue.push(pkt, now)
        if result is EnqueueResult.DROPPED:
            if self.drop_trace is not None:
                self.drop_trace.record(pkt, now, marked=False)
            sim.free_packet(pkt)
        elif result is EnqueueResult.MARKED:
            if self.drop_trace is not None:
                self.drop_trace.record(pkt, now, marked=True)
        return result

    def _transmission_done(self, pkt: Packet) -> None:
        sim = self.sim
        self.bytes_forwarded += pkt.size
        self.packets_forwarded += 1
        sim.schedule_fast(self.delay, self.dst.receive, pkt, self)
        nxt = self.queue.pop(sim.now)
        if nxt is not None:
            tx_time = nxt.size * 8.0 / self.rate_bps
            if self.max_noise > 0:
                tx_time += float(self.rng.random()) * self.max_noise
            self.busy_time += tx_time
            sim.schedule_fast(tx_time, self._transmission_done, nxt)
        else:
            self.busy = False


@dataclass
class DummynetConfig:
    """Emulation parameters layered on :class:`repro.sim.DumbbellConfig`."""

    base: DumbbellConfig = field(default_factory=DumbbellConfig)
    clock_resolution: float = 1e-3
    processing_noise: float = 200e-6  # max per-packet overhead, seconds
    rtt_classes: tuple[float, ...] = RTT_CLASSES

    def __post_init__(self):
        if self.clock_resolution <= 0:
            raise ValueError("clock_resolution must be positive")
        if not self.rtt_classes:
            raise ValueError("need at least one RTT class")
        if any(r <= 0 for r in self.rtt_classes):
            raise ValueError("RTT classes must be positive")


def build_dummynet_dumbbell(
    sim: Simulator,
    config: Optional[DummynetConfig] = None,
    rng: Optional[np.random.Generator] = None,
) -> Dumbbell:
    """Build a dumbbell whose bottleneck behaves like a Dummynet pipe.

    The returned :class:`repro.sim.topology.Dumbbell` has a
    :class:`NoisyLink` forward bottleneck and a 1 ms-quantized drop trace;
    attach host pairs with ``add_pair(rtt)`` using the config's RTT classes
    (``config.rtt_classes[i % len]`` is the conventional assignment).
    """
    cfg = config or DummynetConfig()
    rng = rng if rng is not None else np.random.default_rng(0)
    db = Dumbbell(sim, cfg.base)

    qtrace = QuantizedDropTrace(cfg.clock_resolution, name="dummynet")
    noisy = NoisyLink(
        sim,
        db.right_router,
        cfg.base.bottleneck_rate_bps,
        cfg.base.bottleneck_delay,
        rng=rng,
        max_noise=cfg.processing_noise,
        queue=db.forward_queue,
        name="dummynet-pipe",
        drop_trace=qtrace,
    )
    db.bottleneck_fwd = noisy
    db.drop_trace = qtrace

    # add_pair routes via db.bottleneck_fwd, so pairs added after this swap
    # use the noisy pipe automatically.
    return db
