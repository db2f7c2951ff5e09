"""Topology builders.

The central scenario is the paper's Figure 1 dumbbell: a set of senders and
receivers on 1 Gbps access links sharing one bottleneck (c = 100 Mbps)
between two routers.  Per-pair round-trip times are realized by splitting
the pair's propagation delay evenly across its four access-link directions,
so the configured RTT is exact regardless of direction.

General topologies (used by the Internet substrate for multi-hop paths) can
be assembled from :func:`connect` directly.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.sim.engine import Simulator
from repro.sim.link import Link
from repro.sim.node import Host, Node, Router
from repro.sim.queues import DropTailQueue, Queue
from repro.sim.trace import ArrivalTrace, DropTrace

__all__ = ["connect", "DumbbellConfig", "Dumbbell", "HostPair", "build_dumbbell"]


def connect(
    sim: Simulator,
    a: Node,
    b: Node,
    rate_bps: float,
    delay: float,
    queue_ab: Optional[Queue] = None,
    queue_ba: Optional[Queue] = None,
    **link_kwargs,
) -> tuple[Link, Link]:
    """Create a full-duplex connection: returns ``(link_a_to_b, link_b_to_a)``."""
    ab = Link(sim, b, rate_bps, delay, queue=queue_ab, **link_kwargs)
    ba = Link(sim, a, rate_bps, delay, queue=queue_ba, **link_kwargs)
    return ab, ba


@dataclass
class DumbbellConfig:
    """Parameters of the Figure 1 dumbbell.

    ``buffer_pkts`` is the bottleneck FIFO size in packets.  The paper sweeps
    it from 1/8 to 2 BDP; :meth:`bdp_packets` converts for a given RTT.
    """

    bottleneck_rate_bps: float = 100e6
    access_rate_bps: float = 1e9
    bottleneck_delay: float = 0.0
    buffer_pkts: int = 100
    reverse_buffer_pkts: Optional[int] = None  # default: same as forward
    packet_size: int = 1000
    trace_arrivals: bool = False

    def bdp_packets(self, rtt: float) -> int:
        """Bandwidth-delay product in packets for a path of ``rtt`` seconds."""
        return max(1, int(round(self.bottleneck_rate_bps * rtt / 8.0 / self.packet_size)))


@dataclass
class HostPair:
    """A sender/receiver host pair attached to the dumbbell."""

    left: Host
    right: Host
    rtt: float
    index: int
    links: tuple[Link, ...] = field(default_factory=tuple, repr=False)


class Dumbbell:
    """A built dumbbell: two routers, a traced bottleneck, attachable pairs."""

    def __init__(self, sim: Simulator, config: DumbbellConfig):
        self.sim = sim
        self.config = config
        self.left_router = Router(sim, name="L")
        self.right_router = Router(sim, name="R")
        self.drop_trace = DropTrace("bottleneck")
        self.reverse_drop_trace = DropTrace("bottleneck-reverse")
        self.arrival_trace = ArrivalTrace("bottleneck") if config.trace_arrivals else None

        rev_buf = (
            config.reverse_buffer_pkts
            if config.reverse_buffer_pkts is not None
            else config.buffer_pkts
        )
        self.forward_queue: Queue = DropTailQueue(config.buffer_pkts, name="bottleneck")
        self.reverse_queue: Queue = DropTailQueue(rev_buf, name="bottleneck-rev")
        self.bottleneck_fwd = Link(
            sim,
            self.right_router,
            config.bottleneck_rate_bps,
            config.bottleneck_delay,
            queue=self.forward_queue,
            name="bottleneck",
            drop_trace=self.drop_trace,
            arrival_trace=self.arrival_trace,
        )
        self.bottleneck_rev = Link(
            sim,
            self.left_router,
            config.bottleneck_rate_bps,
            config.bottleneck_delay,
            queue=self.reverse_queue,
            name="bottleneck-rev",
            drop_trace=self.reverse_drop_trace,
        )
        self.pairs: list[HostPair] = []

    def set_forward_queue(self, queue: Queue) -> None:
        """Swap the bottleneck discipline (e.g. DropTail -> RED) pre-run."""
        self.forward_queue = queue
        self.bottleneck_fwd.attach_queue(queue)

    def add_pair(self, rtt: float, name: Optional[str] = None) -> HostPair:
        """Attach a sender (left) / receiver (right) host pair with the given
        propagation RTT.

        The RTT is split as four equal access-link delays; the bottleneck's
        own propagation delay (usually 0) adds on top in both directions.
        """
        if rtt <= 0:
            raise ValueError(f"rtt must be positive, got {rtt}")
        cfg = self.config
        idx = len(self.pairs)
        tag = name if name is not None else f"pair{idx}"
        left = Host(self.sim, name=f"{tag}.snd")
        right = Host(self.sim, name=f"{tag}.rcv")
        d = max(0.0, rtt - 2.0 * cfg.bottleneck_delay) / 4.0

        l_up, l_down = connect(self.sim, left, self.left_router, cfg.access_rate_bps, d)
        r_up, r_down = connect(self.sim, right, self.right_router, cfg.access_rate_bps, d)
        left.uplink = l_up
        right.uplink = r_up

        # Forward: left host -> left router -> bottleneck -> right router -> right host
        self.left_router.add_route(right.node_id, self.bottleneck_fwd)
        self.right_router.add_route(right.node_id, r_down)
        # Reverse: right host -> right router -> bottleneck_rev -> left router -> left host
        self.right_router.add_route(left.node_id, self.bottleneck_rev)
        self.left_router.add_route(left.node_id, l_down)

        pair = HostPair(left=left, right=right, rtt=rtt, index=idx,
                        links=(l_up, l_down, r_up, r_down))
        self.pairs.append(pair)
        return pair

    # -- conveniences used by experiments --------------------------------
    @property
    def capacity_bps(self) -> float:
        """Bottleneck service rate in bits per second."""
        return self.config.bottleneck_rate_bps

    def mean_rtt(self) -> float:
        """Mean propagation RTT over attached pairs (normalization constant
        for router-trace analysis; see DESIGN.md)."""
        if not self.pairs:
            raise ValueError("no pairs attached")
        return sum(p.rtt for p in self.pairs) / len(self.pairs)


def build_dumbbell(sim: Simulator, config: Optional[DumbbellConfig] = None) -> Dumbbell:
    """Build an empty dumbbell; attach host pairs with :meth:`Dumbbell.add_pair`."""
    return Dumbbell(sim, config or DumbbellConfig())


# ---------------------------------------------------------------------------
# Star / complete-graph topology (paper future work: MapReduce shuffles)
# ---------------------------------------------------------------------------


@dataclass
class StarConfig:
    """Parameters of a star topology: N hosts around one switch.

    Every host gets an uplink and a downlink at ``access_rate_bps``; the
    *downlink* is where a many-to-one shuffle congests, so it carries the
    finite ``buffer_pkts`` FIFO and a drop trace.  Any host pair can talk:
    the complete traffic graph the paper's future work calls for.
    """

    access_rate_bps: float = 1e9
    downlink_rate_bps: Optional[float] = None  # default: same as access
    buffer_pkts: int = 100
    packet_size: int = 1000

    def bdp_packets(self, rtt: float) -> int:
        """Bandwidth-delay product in packets for a path of ``rtt``."""
        rate = self.downlink_rate_bps or self.access_rate_bps
        return max(1, int(round(rate * rtt / 8.0 / self.packet_size)))


@dataclass
class StarHost:
    """One host on the star with its attachment metadata."""

    host: Host
    delay: float  # one-way propagation to the switch
    uplink: Link = field(repr=False, default=None)  # type: ignore[assignment]
    downlink: Link = field(repr=False, default=None)  # type: ignore[assignment]
    drop_trace: DropTrace = field(repr=False, default=None)  # type: ignore[assignment]


class Star:
    """A built star: one switch, per-host traced downlinks."""

    def __init__(self, sim: Simulator, config: Optional[StarConfig] = None):
        self.sim = sim
        self.config = config or StarConfig()
        self.switch = Router(sim, name="SW")
        self.hosts: list[StarHost] = []

    def add_host(self, delay: float, name: Optional[str] = None) -> StarHost:
        """Attach a host whose one-way propagation to the switch is
        ``delay`` seconds (RTT between hosts a and b = 2*(d_a + d_b))."""
        if delay < 0:
            raise ValueError(f"delay must be non-negative, got {delay}")
        cfg = self.config
        tag = name if name is not None else f"h{len(self.hosts)}"
        host = Host(self.sim, name=tag)
        trace = DropTrace(f"{tag}.down")
        up = Link(self.sim, self.switch, cfg.access_rate_bps, delay,
                  name=f"{tag}.up")
        down_rate = cfg.downlink_rate_bps or cfg.access_rate_bps
        down = Link(
            self.sim, host, down_rate, delay,
            queue=DropTailQueue(cfg.buffer_pkts, name=f"{tag}.down"),
            name=f"{tag}.down", drop_trace=trace,
        )
        host.uplink = up
        self.switch.add_route(host.node_id, down)
        sh = StarHost(host=host, delay=delay, uplink=up, downlink=down,
                      drop_trace=trace)
        self.hosts.append(sh)
        return sh

    def rtt(self, a: StarHost, b: StarHost) -> float:
        """Propagation RTT between two attached hosts."""
        return 2.0 * (a.delay + b.delay)


def build_star(sim: Simulator, config: Optional[StarConfig] = None) -> Star:
    """Build an empty star; attach hosts with :meth:`Star.add_host`."""
    return Star(sim, config)
