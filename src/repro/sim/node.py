"""Nodes: hosts (protocol endpoints) and routers (forwarders).

A :class:`Host` demultiplexes received packets to protocol *agents* by flow
id; a :class:`Router` forwards packets toward their destination via a static
routing table (destination node id -> outgoing link).  Routing is static
because the paper's topologies (dumbbell, probe paths) never reroute.
"""

from __future__ import annotations

import itertools
from typing import TYPE_CHECKING, Any, Optional

from repro.sim.packet import Packet

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.engine import Simulator
    from repro.sim.link import Link

__all__ = ["Node", "Host", "Router"]

_node_ids = itertools.count()


class Node:
    """Base node: owns an id and a routing table.

    The outgoing link for a packet is ``routes.get(pkt.dst, default_route)``;
    :meth:`Router.receive` and :meth:`Host.send` spell that lookup inline
    (it runs once per hop).
    """

    def __init__(self, sim: "Simulator", name: Optional[str] = None):
        self.sim = sim
        self.node_id = next(_node_ids)
        self.name = name if name is not None else f"node{self.node_id}"
        self.routes: dict[int, "Link"] = {}
        self.default_route: Optional["Link"] = None

    def add_route(self, dst_node_id: int, link: "Link") -> None:
        """Install a static route: destination node id -> outgoing link."""
        self.routes[dst_node_id] = link

    def receive(self, pkt: Packet, link: Optional["Link"] = None) -> None:
        """Agent/node entry point: process an incoming packet."""
        raise NotImplementedError

    def __repr__(self) -> str:  # pragma: no cover
        return f"<{type(self).__name__} {self.name}#{self.node_id}>"


class Router(Node):
    """Store-and-forward router: looks up the route and relays the packet.

    Packets with no route are counted in ``no_route_drops`` (a configuration
    error in the paper's topologies, surfaced loudly by tests).
    """

    def __init__(self, sim: "Simulator", name: Optional[str] = None):
        super().__init__(sim, name=name)
        self.packets_forwarded = 0
        self.no_route_drops = 0

    def receive(self, pkt: Packet, link: Optional["Link"] = None) -> None:
        """Agent/node entry point: process an incoming packet."""
        out = self.routes.get(pkt.dst, self.default_route)
        if out is None:
            self.no_route_drops += 1
            self.sim.free_packet(pkt)
            return
        self.packets_forwarded += 1
        out.send(pkt)


class Host(Node):
    """End host: demultiplexes packets to agents by flow id.

    ``uplink`` is the host's access link; ``send`` pushes a packet onto it
    (or onto an explicit route when one exists, which general topologies
    use).
    """

    def __init__(self, sim: "Simulator", name: Optional[str] = None):
        super().__init__(sim, name=name)
        self.agents: dict[int, Any] = {}
        self.uplink: Optional["Link"] = None
        self.unclaimed_packets = 0

    def attach(self, flow_id: int, agent: Any) -> None:
        """Register ``agent`` (a sender, sink or source: anything with a
        ``receive(pkt)`` method) as the endpoint for ``flow_id`` on this
        host."""
        if flow_id in self.agents:
            raise ValueError(f"flow {flow_id} already attached to {self.name}")
        self.agents[flow_id] = agent

    def detach(self, flow_id: int) -> None:
        """Remove the agent registered under ``flow_id`` (idempotent)."""
        self.agents.pop(flow_id, None)

    def send(self, pkt: Packet) -> None:
        """Offer a packet to this component for forwarding."""
        out = self.routes.get(pkt.dst, self.default_route)
        if out is None:
            out = self.uplink
        if out is None:
            raise RuntimeError(f"host {self.name} has no uplink or route for {pkt!r}")
        out.send(pkt)

    def receive(self, pkt: Packet, link: Optional["Link"] = None) -> None:
        """Agent/node entry point: process an incoming packet."""
        agent = self.agents.get(pkt.flow_id)
        if agent is None:
            # Packets for unknown flows (e.g. noise sinks that don't track
            # sequence state) are counted, not raised: a trace-level check.
            self.unclaimed_packets += 1
            self.sim.free_packet(pkt)
            return
        agent.receive(pkt)
