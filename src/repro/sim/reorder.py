"""Reordering link: delivery-order perturbation for robustness studies.

The paper's loss-detection story assumes FIFO paths, where three duplicate
ACKs imply a drop.  Real Internet paths occasionally reorder packets
(parallel router fabrics, route changes), producing dupACK runs *without*
loss — spurious fast retransmits that window-based TCP must survive.
:class:`ReorderingLink` adds an independent random extra delay to a
fraction of packets so later packets can overtake them, letting the test
suite inject exactly that failure mode.
"""

from __future__ import annotations

import numpy as np

from repro.sim.link import Link
from repro.sim.packet import Packet

__all__ = ["ReorderingLink"]


class ReorderingLink(Link):
    """Link that delays a random subset of packets by an extra lag.

    Parameters (beyond :class:`repro.sim.link.Link`'s):

    reorder_prob:
        Per-packet probability of receiving the extra lag.
    extra_delay:
        Additional propagation delay (seconds) for lagged packets — set it
        above a few serialization times to make overtaking likely.
    """

    def __init__(
        self,
        *args,
        rng: np.random.Generator,
        reorder_prob: float = 0.01,
        extra_delay: float = 0.005,
        **kw,
    ):
        super().__init__(*args, **kw)
        if not (0.0 <= reorder_prob <= 1.0):
            raise ValueError(f"reorder_prob must be in [0, 1], got {reorder_prob}")
        if extra_delay <= 0:
            raise ValueError(f"extra_delay must be positive, got {extra_delay}")
        self.rng = rng
        self.reorder_prob = float(reorder_prob)
        self.extra_delay = float(extra_delay)
        self.reordered = 0

    def _transmission_done(self, pkt: Packet) -> None:
        # Link._transmission_done with the reorder draw ahead of the delivery.
        sim = self.sim
        self.bytes_forwarded += pkt.size
        self.packets_forwarded += 1
        lag = 0.0
        if self.reorder_prob > 0.0 and self.rng.random() < self.reorder_prob:
            lag = self.extra_delay
            self.reordered += 1
        sim.schedule_fast(self.delay + lag, self.dst.receive, pkt, self)
        nxt = self.queue.pop(sim.now)
        if nxt is not None:
            tx_time = nxt.size * 8.0 / self.rate_bps
            self.busy_time += tx_time
            sim.schedule_fast(tx_time, self._transmission_done, nxt)
        else:
            self.busy = False
