"""Per-protocol fluid window maps — the TCP half of the mean-field backend.

The packet engine evolves each sender's window through per-packet ACK
clocking; the fluid backend (:mod:`repro.sim.fluid`) evolves one *mean*
window per flow class instead, and needs only two protocol-specific
ingredients to do it:

* the **loss-free growth rate** ``dW/dt`` (slow start doubles per RTT,
  congestion avoidance adds one segment per RTT), and
* the **multiplicative decrease** ``beta`` applied once per loss event.

:class:`FluidWindowMap` packages exactly those, as scalar functions of
one class's state, and a registry keyed by the *same* names as
:func:`repro.tcp.registry.create_sender` lets drivers flip
``backend="fluid"`` without renaming anything.  Maps exist for
``reno``, ``newreno``, and ``paced``; the remaining zoo senders (bbr,
bic, sack, fast, quic-paced) have window laws whose mean-field
reduction we have not derived, so :func:`make_fluid_map` raises
:class:`~repro.sim.queues.FluidNotSupported` for them with the
supported set in the message.

The reduction is deliberately coarse: at the mean-field level reno and
newreno share one AIMD law (their difference — recovery from multiple
losses in one window — is a per-event packet mechanism below the
resolution of a rate ODE), and pacing changes the *sub-RTT emission
pattern*, not the window law, so ``paced`` shares the AIMD map too but
keeps ``rate_based=True`` so drivers can attribute throughput classes
consistently with the packet engine.  The convergence suite
(``tests/experiments/test_manyflows.py``) is the check that this
coarseness still predicts what the packet engine does as N grows.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

from repro.sim.queues import FluidNotSupported
from repro.tcp.registry import sender_names, sender_spec

__all__ = [
    "FluidWindowMap",
    "register_fluid_map",
    "make_fluid_map",
    "fluid_map_names",
]

_LN2 = math.log(2.0)


@dataclass(frozen=True)
class FluidWindowMap:
    """Mean-field window dynamics for one congestion-control variant.

    ``growth(w, ssthresh, rtt)`` returns the loss-free ``dW/dt`` of one
    class as a float, for its mean window ``w`` (packets), slow-start
    threshold ``ssthresh`` and round-trip time ``rtt`` (seconds,
    queueing delay included).  ``beta`` is the multiplicative-decrease
    factor a loss event applies to both the window and the new
    ``ssthresh``.
    ``rate_based`` mirrors :class:`repro.tcp.registry.SenderSpec` so the
    fluid drivers classify throughput the same way the packet drivers
    do.
    """

    name: str
    beta: float
    rate_based: bool
    description: str
    growth: Callable[[float, float, float], float] = field(
        repr=False, default=None  # type: ignore[assignment]
    )

    def __post_init__(self):
        if self.growth is None:
            object.__setattr__(self, "growth", _aimd_growth)
        if not 0.0 < self.beta < 1.0:
            raise ValueError(f"beta must be in (0, 1), got {self.beta}")


def _aimd_growth(w: float, ssthresh: float, rtt: float) -> float:
    """Standard-TCP growth: exponential below ssthresh, +1/RTT above.

    Slow start doubles the window each RTT, i.e. ``dW/dt = W ln2 / R``
    (the continuous-time law whose solution is ``W0 * 2^(t/R)``);
    congestion avoidance adds one segment per RTT, ``dW/dt = 1/R``.
    """
    return w * (_LN2 / rtt) if w < ssthresh else 1.0 / rtt


_FLUID_MAP_REGISTRY: dict[str, FluidWindowMap] = {}


def register_fluid_map(fmap: FluidWindowMap) -> FluidWindowMap:
    """Register (or replace) the fluid window map for a sender name."""
    _FLUID_MAP_REGISTRY[fmap.name] = fmap
    return fmap


def fluid_map_names() -> tuple[str, ...]:
    """Sender names with a registered fluid window map, sorted."""
    return tuple(sorted(_FLUID_MAP_REGISTRY))


def make_fluid_map(name: str) -> FluidWindowMap:
    """Look up the fluid window map for a registered sender name.

    Unknown names raise ``ValueError`` (same contract as
    :func:`repro.tcp.registry.sender_spec`); registered senders without
    a mean-field reduction raise
    :class:`~repro.sim.queues.FluidNotSupported` naming the supported
    set.
    """
    if name not in sender_names():
        raise ValueError(
            f"unknown sender {name!r}; registered: {', '.join(sender_names())}"
        )
    try:
        return _FLUID_MAP_REGISTRY[name]
    except KeyError:
        raise FluidNotSupported(
            f"sender {name!r} has no fluid window map (its window law has "
            "no mean-field reduction here); fluid-supported senders: "
            f"{', '.join(fluid_map_names())}"
        ) from None


register_fluid_map(FluidWindowMap(
    name="reno",
    beta=0.5,
    rate_based=sender_spec("reno").rate_based,
    description="AIMD(1, 1/2): slow start, +1 MSS/RTT, halve per loss event",
))

register_fluid_map(FluidWindowMap(
    name="newreno",
    beta=0.5,
    rate_based=sender_spec("newreno").rate_based,
    description="Same mean-field AIMD(1, 1/2) law as reno (partial-ACK "
                "recovery is below the ODE's resolution)",
))

register_fluid_map(FluidWindowMap(
    name="paced",
    beta=0.5,
    rate_based=sender_spec("paced").rate_based,
    description="AIMD(1, 1/2) at rate W/RTT; pacing shapes sub-RTT "
                "emission, which the fluid limit already assumes",
))
