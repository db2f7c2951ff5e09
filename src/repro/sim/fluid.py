"""Mean-field fluid backend: O(classes)-per-step many-flows engine.

The packet engine (:mod:`repro.sim.engine`) costs O(N) events per RTT
for N flows; at the populations where the paper's *implications* live
(thousands to millions of flows sharing one buffer) that is the wall
BENCH_3 left standing.  This module steps the mean-field limit instead,
following the two PAPERS.md oracles:

* **McDonald–Reynier** — as N grows, per-flow windows decouple and the
  queue sees only the *aggregate* arrival rate, so one window ODE per
  flow *class* plus one queue-occupancy ODE captures the system
  (propagation of chaos).
* **Lautenschlaeger** — under the weak-convergence scaling (capacity
  and buffer grown proportionally to N) the stochastic packet system
  converges to this deterministic fluid limit, which is exactly what
  the convergence suite in ``tests/experiments/test_manyflows.py``
  measures over N = 100 → 1k → 10k.

Per step the engine computes, for per-class windows ``W``/``ssthresh``
and the shared queue ``q``, all as Python floats in plain loops over
the classes (K is 2 for every driver in this repo, and numpy dispatch
on length-K arrays cost several times the arithmetic):

1. effective RTT ``R = R0 + q/C`` and per-flow rate ``a = W/R``;
2. the queue's early-drop probability from its registered fluid law
   (:func:`repro.sim.queues.make_fluid_law` — the *same* RED ramp the
   packet queue flips coins against);
3. an exact-per-step queue update (drain-to-empty and overflow handled
   in closed form, not by clamping after the fact) so the conservation
   identity *offered = delivered + dropped + Δq* holds to float
   rounding at every step — the fluid analogue of the packet engine's
   ``arrived == enqueued + dropped`` invariant;
4. per-class loss feedback delayed by one propagation RTT, thinned to
   *loss events* via ``eta = (1 - exp(-delta R)) / R`` (a window halves
   at most once per RTT however many drops land in it — the fluid form
   of NewReno's per-window cut), driving the AIMD decrease from the
   protocol's :class:`~repro.tcp.fluid_maps.FluidWindowMap`.

Everything is deterministic: no RNG, so identical scenarios produce
identical bytes, and halving ``dt`` must move results only within the
integrator's tolerance (property-tested).  Two definitions the bytes
depend on: the aggregate arrival rate is the left-to-right sum of the
class rates in scenario order, and ``expm1`` in step 4 is numpy's (on
AVX-512 hosts its SVML kernel and libm's ``math.expm1`` differ in the
last ulp for one argument in six of a fluid zoo grid's).
``tests/sim/fluid_oracle.py`` keeps the array stepper this loop
replaced as the byte-for-byte oracle.

>>> scn = FluidScenario(
...     classes=(FluidClass("near", "newreno", n=500, rtt=0.06),
...              FluidClass("far", "newreno", n=500, rtt=0.14)),
...     capacity_bps=500 * 400e3, buffer_pkts=2500)
>>> res = run_fluid(scn)
>>> res.flows, round(sum(res.throughput_share), 6)
(1000, 1.0)
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from repro.sim.queues import FluidQueueLaw, make_fluid_law
from repro.tcp.fluid_maps import FluidWindowMap, make_fluid_map

__all__ = [
    "FluidClass",
    "FluidScenario",
    "FluidResult",
    "run_fluid",
]


@dataclass(frozen=True)
class FluidClass:
    """One homogeneous flow population sharing the bottleneck.

    ``sender`` is a :mod:`repro.tcp.registry` name with a registered
    fluid window map (reno/newreno/paced); ``rtt`` is the two-way
    propagation delay excluding queueing; ``start`` (finite, >= 0)
    staggers class activation; ``w0`` seeds the mean window (packets).
    ``w_max`` is the receiver-window cap and ``ssthresh0`` the initial
    slow-start threshold — both default to effectively unbounded, and
    both map one-to-one onto the packet senders' ``max_cwnd`` /
    ``initial_ssthresh`` so a convergence pair runs identical caps.
    """

    name: str
    sender: str
    n: int
    rtt: float
    start: float = 0.0
    w0: float = 2.0
    w_max: float = 1e9
    ssthresh0: float = 1e9

    def __post_init__(self):
        if self.n < 1:
            raise ValueError(f"class {self.name!r} needs n >= 1, got {self.n}")
        if self.rtt <= 0:
            raise ValueError(f"class {self.name!r} needs rtt > 0, got {self.rtt}")
        if not 0.0 <= self.start < float("inf"):
            raise ValueError(
                f"class {self.name!r} needs a finite start >= 0, got {self.start}"
            )
        if self.w0 < 1.0:
            raise ValueError(f"class {self.name!r} needs w0 >= 1, got {self.w0}")
        if self.w_max < self.w0:
            raise ValueError(
                f"class {self.name!r} needs w_max >= w0, got {self.w_max}"
            )


@dataclass(frozen=True)
class FluidScenario:
    """A many-flows bottleneck scenario for the fluid backend.

    Mirrors the packet drivers' dumbbell vocabulary: ``capacity_bps``
    and ``buffer_pkts`` describe the shared bottleneck, ``queue`` is a
    :func:`repro.sim.queues.make_queue` kind (resolved through
    :func:`~repro.sim.queues.make_fluid_law`, so kinds without a
    mean-field reduction raise
    :class:`~repro.sim.queues.FluidNotSupported` at validation time,
    not mid-run).  ``warmup`` defaults to 30% of ``duration``; measured
    quantities (throughput share, loss-event rate) cover
    ``[warmup, duration]`` only.  A scenario that cannot be stepped or
    measured is a ``ValueError`` at construction: ``dt`` and
    ``duration`` finite with ``0 < dt < duration``, ``packet_size >= 1``
    and ``0 <= warmup <= (steps - 1) * dt < duration`` (a window
    holding no step would report all-zero shares and rates).
    """

    classes: tuple[FluidClass, ...]
    capacity_bps: float
    buffer_pkts: int
    queue: str = "droptail"
    queue_kwargs: dict = field(default_factory=dict)
    packet_size: int = 1000
    duration: float = 5.0
    dt: float = 0.005
    warmup: Optional[float] = None

    def __post_init__(self):
        if not self.classes:
            raise ValueError("scenario needs at least one flow class")
        if self.capacity_bps <= 0:
            raise ValueError(f"capacity must be positive, got {self.capacity_bps}")
        if self.packet_size < 1:
            raise ValueError(
                f"packet_size must be >= 1 byte, got {self.packet_size}"
            )
        # Chained comparisons are false for NaN, so these reject it too.
        smallest_rtt = min(c.rtt for c in self.classes)
        if not 0.0 < self.dt <= smallest_rtt:
            raise ValueError(
                f"dt={self.dt} must be positive and <= the smallest class "
                f"RTT ({smallest_rtt})"
            )
        if not self.dt < self.duration < float("inf"):
            raise ValueError(
                f"duration={self.duration} must be finite and exceed "
                f"dt={self.dt}"
            )
        last_step = (self.steps - 1) * self.dt
        if not 0.0 <= self.warmup_s <= last_step:
            raise ValueError(
                f"warmup={self.warmup_s} must lie in [0, {last_step}], the "
                f"start of the last step (duration={self.duration}, "
                f"dt={self.dt}): no step would be measured"
            )

    @property
    def capacity_pps(self) -> float:
        """Bottleneck service rate in packets per second."""
        return self.capacity_bps / (8.0 * self.packet_size)

    @property
    def steps(self) -> int:
        """Number of integration steps; step ``i`` covers ``[i*dt, (i+1)*dt)``."""
        return int(round(self.duration / self.dt))

    @property
    def warmup_s(self) -> float:
        """Effective warmup (explicit value or 30% of duration)."""
        return 0.3 * self.duration if self.warmup is None else self.warmup

    @property
    def flows(self) -> int:
        """Total flow count across classes."""
        return sum(c.n for c in self.classes)

    def window_maps(self) -> tuple[FluidWindowMap, ...]:
        """Resolve per-class window maps (raises FluidNotSupported early)."""
        return tuple(make_fluid_map(c.sender) for c in self.classes)

    def queue_law(self) -> FluidQueueLaw:
        """Resolve the queue's fluid drop law (raises FluidNotSupported early)."""
        return make_fluid_law(
            self.queue, self.buffer_pkts,
            service_rate_pps=self.capacity_pps, **self.queue_kwargs,
        )

    def validate(self) -> None:
        """Fail fast on any component without a mean-field reduction."""
        self.window_maps()
        self.queue_law()


@dataclass
class FluidResult:
    """Outputs of one fluid run, aligned with the packet-engine metrics.

    ``throughput_share`` and ``class_loss_event_rate`` (per-flow loss
    *events* — window cuts — per second, the mean of the thinned
    feedback rate ``eta`` over the measurement window) are the two
    convergence observables; ``residuals`` is the per-step conservation
    defect
    (packets) that the invariant tests pin to float rounding.  Traces
    (``times``/``q_trace``/``w_trace``/``drop_rate_trace``) are full
    resolution — one entry per step — for plotting and the tutorial.
    """

    class_names: tuple[str, ...]
    class_n: tuple[int, ...]
    flows: int
    steps: int
    dt: float
    duration: float
    warmup: float
    throughput_pps: tuple[float, ...]
    throughput_share: tuple[float, ...]
    class_loss_event_rate: tuple[float, ...]
    loss_event_count: int
    loss_event_rate: float
    loss_rate: float
    offered_pkts: float
    delivered_pkts: float
    dropped_pkts: float
    max_residual: float
    residuals: np.ndarray
    times: np.ndarray
    q_trace: np.ndarray
    w_trace: np.ndarray
    drop_rate_trace: np.ndarray
    #: Per-class delivered rate (packets/s), shape (steps, classes).
    x_trace: np.ndarray


def _loss_events(times: np.ndarray, drop_rate: np.ndarray, *,
                 min_gap: float, t_lo: float) -> int:
    """Count drop episodes, merging gaps shorter than ``min_gap``.

    A loss *event* here is a run of steps with positive aggregate drop
    rate; a new one starts wherever the gap to the *previous active
    step* exceeds ``min_gap``, and it is counted if its first step ends
    at or after ``t_lo``.  That is not the packet-side definition:
    :func:`repro.core.events.event_spans` windows one RTT from the
    event's *start*, so a drop run lasting three RTTs is one event here
    and three or more there (ROADMAP, oracle item (c)).
    """
    active = drop_rate > 0.0
    if not active.any():
        return 0
    idx = np.flatnonzero(active)
    t = times[idx]
    # A new event starts wherever the gap to the previous active step
    # exceeds min_gap; the first active step always starts one.
    starts = np.empty(len(t), dtype=bool)
    starts[0] = True
    np.greater(t[1:] - t[:-1], min_gap, out=starts[1:])
    return int(np.count_nonzero(t[starts] >= t_lo))


def run_fluid(scenario: FluidScenario) -> FluidResult:
    """Integrate the mean-field ODE system and measure the observables."""
    classes = scenario.classes
    K = len(classes)
    maps = scenario.window_maps()
    law = scenario.queue_law()
    law.reset()

    dt = scenario.dt
    steps = scenario.steps
    C = scenario.capacity_pps
    B = float(scenario.buffer_pkts)
    warmup = scenario.warmup_s

    # Per-class constants and state, as lists of Python floats.
    n = [float(c.n) for c in classes]
    rtt0 = [float(c.rtt) for c in classes]
    start = [float(c.start) for c in classes]
    W = [float(c.w0) for c in classes]
    w_max = [float(c.w_max) for c in classes]
    ssthresh = [float(c.ssthresh0) for c in classes]
    beta = [m.beta for m in maps]
    growth = [m.growth for m in maps]
    # One propagation RTT of feedback delay, at least one step.
    delay = [max(1, round(r / dt)) for r in rtt0]

    # Per-class per-flow drop-rate history for delayed feedback: step i
    # writes row i + 1 and reads rows i + 1 - delay[k], so a ring of
    # max(delay) + 1 rows holds every row still to be read.  Rows not
    # yet written read 0.0, like the row before the first step.
    ring = max(delay) + 1
    H = [[0.0] * K for _ in range(ring)]
    residuals = np.empty(steps)
    q_trace = np.empty(steps)
    w_trace = np.empty((steps, K))
    drop_rate_trace = np.empty(steps)
    x_trace = np.empty((steps, K))
    times = (np.arange(steps, dtype=np.float64) + 1.0) * dt

    q = 0.0
    offered_t = delivered_t = dropped_t = 0.0
    delivered_k = [0.0] * K
    eta_sum = [0.0] * K
    measure_steps = 0
    R = [0.0] * K
    A_k = [0.0] * K
    delta_d = [0.0] * K
    expm1_arg = np.empty(K)
    expm1_out = np.empty(K)
    expm1_of_zero = [-0.0] * K
    class_ids = range(K)

    for i in range(steps):
        t = i * dt
        measuring = t >= warmup
        queueing = q / C
        # Aggregate arrival rate: the left-to-right sum over classes.
        A = 0.0
        for k in class_ids:
            R[k] = r = rtt0[k] + queueing
            A_k[k] = a = n[k] * W[k] / r if t >= start[k] else 0.0
            A += a

        p = law.drop_probability(q, A, dt) if A > 0.0 else 0.0
        I = (1.0 - p) * A

        # Exact per-step queue bookkeeping (packets).
        overflow = 0.0
        if q <= 0.0 and I <= C:
            served = I * dt
            q_new = 0.0
        else:
            q_raw = q + (I - C) * dt
            if q_raw < 0.0:
                served = q + I * dt
                q_new = 0.0
            elif q_raw > B:
                overflow = (q_raw - B) / dt
                served = C * dt
                q_new = B
            else:
                served = C * dt
                q_new = q_raw

        offered = A * dt
        early = p * A * dt
        over = overflow * dt
        residuals[i] = offered - early - over - served - (q_new - q)

        offered_t += offered
        dropped_t += early + over
        delivered_t += served
        if measuring:
            measure_steps += 1

        row = i + 1
        written = H[row % ring]
        feedback = False
        for k in class_ids:
            if A > 0.0:
                share = A_k[k] / A
                written[k] = (p * A_k[k] + overflow * share) / n[k]
            else:
                share = written[k] = 0.0
            delivered = served * share
            if measuring:
                delivered_k[k] += delivered
            x_trace[i, k] = delivered / dt
            delta_d[k] = d = H[(row - delay[k]) % ring][k]
            if d != 0.0:
                feedback = True
            expm1_arg[k] = -d * R[k]

        # Delayed loss feedback, thinned to at most one event per RTT.
        # The one call left to numpy, over all classes at once: libm's
        # math.expm1 is not bit-equal to it (module docstring).  When no
        # class has delayed drops every argument is -0.0 and so is every
        # result, which needs no call.
        if feedback:
            np.expm1(expm1_arg, out=expm1_out)
            e = expm1_out.tolist()
        else:
            e = expm1_of_zero

        for k in class_ids:
            w = W[k]
            eta = -e[k] / R[k]
            if measuring:
                eta_sum[k] += eta
            if t >= start[k]:
                grow = growth[k](w, ssthresh[k], R[k])
                if delta_d[k] > 0.0:
                    ssthresh[k] = max(2.0, beta[k] * w)
            else:
                grow = 0.0
            w = w + (grow - (1.0 - beta[k]) * w * eta) * dt
            W[k] = w = 1.0 if w < 1.0 else w_max[k] if w > w_max[k] else w
            w_trace[i, k] = w

        q_trace[i] = q_new
        drop_rate_trace[i] = p * A + overflow
        q = q_new

    measured = measure_steps * dt
    delivered_k = np.array(delivered_k)
    total_delivered = float(delivered_k.sum())
    share_out = (delivered_k / total_delivered if total_delivered > 0
                 else np.zeros(K))
    events = _loss_events(times, drop_rate_trace,
                          min_gap=min(rtt0), t_lo=warmup)

    return FluidResult(
        class_names=tuple(c.name for c in classes),
        class_n=tuple(c.n for c in classes),
        flows=scenario.flows,
        steps=steps,
        dt=dt,
        duration=scenario.duration,
        warmup=warmup,
        throughput_pps=tuple(float(delivered_k[k] / measured / n[k])
                             for k in range(K)),
        throughput_share=tuple(float(s) for s in share_out),
        class_loss_event_rate=tuple(
            float(e) for e in np.array(eta_sum) / measure_steps),
        loss_event_count=events,
        loss_event_rate=events / measured,
        loss_rate=(dropped_t / offered_t if offered_t > 0 else 0.0),
        offered_pkts=offered_t,
        delivered_pkts=delivered_t,
        dropped_pkts=dropped_t,
        max_residual=float(np.abs(residuals).max()),
        residuals=residuals,
        times=times,
        q_trace=q_trace,
        w_trace=w_trace,
        drop_rate_trace=drop_rate_trace,
        x_trace=x_trace,
    )
