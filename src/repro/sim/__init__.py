"""Discrete-event network simulator substrate (NS-2 equivalent).

The paper's measurements require a packet-level simulator with:

* an event scheduler with deterministic ordering,
* store-and-forward links (transmission + propagation delay),
* finite-buffer queues (DropTail and RED, optionally ECN-marking),
* a dumbbell topology builder matching the paper's Figure 1,
* per-drop timestamped traces and per-flow throughput accounting.

Everything here is self-contained Python; see ``repro.tcp`` for the
transport protocols that run on top of it.
"""

from repro.sim.engine import Event, Simulator
from repro.sim.fluid import FluidClass, FluidResult, FluidScenario, run_fluid
from repro.sim.link import Link
from repro.sim.reference import ReferenceSimulator
from repro.sim.node import Host, Node, Router
from repro.sim.packet import Packet
from repro.sim.queues import (
    DropTailQueue,
    EnqueueResult,
    FluidNotSupported,
    Queue,
    REDQueue,
)
from repro.sim.rng import RngStreams
from repro.sim.topology import (
    Dumbbell,
    DumbbellConfig,
    Star,
    StarConfig,
    StarHost,
    build_dumbbell,
    build_star,
)
from repro.sim.trace import DropTrace, FlowStats, ThroughputTrace
from repro.sim.tracefile import LoadedDropTrace, load_drop_trace, save_drop_trace

__all__ = [
    "DropTailQueue",
    "DropTrace",
    "LoadedDropTrace",
    "Dumbbell",
    "DumbbellConfig",
    "EnqueueResult",
    "Event",
    "FlowStats",
    "FluidClass",
    "FluidNotSupported",
    "FluidResult",
    "FluidScenario",
    "Host",
    "Link",
    "Node",
    "Packet",
    "Queue",
    "REDQueue",
    "ReferenceSimulator",
    "RngStreams",
    "Router",
    "Simulator",
    "Star",
    "StarConfig",
    "StarHost",
    "ThroughputTrace",
    "build_dumbbell",
    "build_star",
    "load_drop_trace",
    "run_fluid",
    "save_drop_trace",
]
