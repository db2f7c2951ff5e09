"""The array stepper of ``repro.sim.fluid``, kept as the test oracle.

Until PR 20 ``run_fluid`` stepped its per-class state as length-K numpy
arrays (~45 numpy calls per step).  The shipped stepper now computes
the same IEEE operations in the same order on Python floats; this is
the old loop, verbatim, so ``tests/sim/test_fluid_oracle.py`` can hold
the new one to it byte for byte.  The only edit: a window map's
``growth`` is now a scalar function, so the array form each class needs
is looked up in :data:`ARRAY_GROWTH` (tests that register a map with
another growth law add its array twin there).
"""

import numpy as np

from repro.sim.fluid import FluidResult, FluidScenario, _loss_events
from repro.tcp import fluid_maps

_LN2 = fluid_maps._LN2


def aimd_growth_arrays(W: np.ndarray, ssthresh: np.ndarray,
                       rtt: np.ndarray) -> np.ndarray:
    """``fluid_maps._aimd_growth`` as it was: vectorized over classes."""
    return np.where(W < ssthresh, W * (_LN2 / rtt), 1.0 / rtt)


#: scalar growth law -> its array twin.
ARRAY_GROWTH = {fluid_maps._aimd_growth: aimd_growth_arrays}


def run_fluid_arrays(scenario: FluidScenario) -> FluidResult:
    """The array stepper ``run_fluid`` was until PR 20, line for line."""
    classes = scenario.classes
    K = len(classes)
    maps = scenario.window_maps()
    law = scenario.queue_law()
    law.reset()

    dt = scenario.dt
    steps = int(round(scenario.duration / dt))
    C = scenario.capacity_pps
    B = float(scenario.buffer_pkts)
    warmup = scenario.warmup_s

    n = np.array([c.n for c in classes], dtype=np.float64)
    rtt0 = np.array([c.rtt for c in classes], dtype=np.float64)
    start = np.array([c.start for c in classes], dtype=np.float64)
    W = np.array([c.w0 for c in classes], dtype=np.float64)
    w_max = np.array([c.w_max for c in classes], dtype=np.float64)
    ssthresh = np.array([c.ssthresh0 for c in classes], dtype=np.float64)
    beta = np.array([m.beta for m in maps], dtype=np.float64)
    # One propagation RTT of feedback delay, at least one step.
    delay = np.maximum(1, np.rint(rtt0 / dt).astype(np.int64))

    # Per-class per-flow drop-rate history for delayed feedback.
    H = np.zeros((steps + 1, K))
    residuals = np.empty(steps)
    q_trace = np.empty(steps)
    w_trace = np.empty((steps, K))
    drop_rate_trace = np.empty(steps)
    x_trace = np.empty((steps, K))
    times = (np.arange(steps, dtype=np.float64) + 1.0) * dt

    q = 0.0
    offered_t = delivered_t = dropped_t = 0.0
    delivered_k = np.zeros(K)
    eta_sum = np.zeros(K)
    measure_steps = 0
    row = np.arange(K)
    growth_fns = [ARRAY_GROWTH[m.growth] for m in maps]
    shared_growth = growth_fns[0] if all(
        g is growth_fns[0] for g in growth_fns) else None

    for i in range(steps):
        t = i * dt
        active = t >= start
        R = rtt0 + q / C
        A_k = np.where(active, n * W / R, 0.0)
        A = float(A_k.sum())

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

        if A > 0.0:
            share = A_k / A
            delta = (p * A_k + overflow * share) / n
        else:
            share = np.zeros(K)
            delta = np.zeros(K)
        H[i + 1] = delta

        offered_t += offered
        dropped_t += early + over
        delivered_t += served
        if t >= warmup:
            delivered_k += served * share
            measure_steps += 1

        # Delayed loss feedback, thinned to at most one event per RTT.
        delta_d = H[np.maximum(i + 1 - delay, 0), row]
        eta = -np.expm1(-delta_d * R) / R
        if t >= warmup:
            eta_sum += eta
        if shared_growth is not None:
            growth = shared_growth(W, ssthresh, R)
        else:
            growth = np.empty(K)
            for k in range(K):
                growth[k] = growth_fns[k](W[k:k + 1], ssthresh[k:k + 1],
                                          R[k:k + 1])[0]
        growth = np.where(active, growth, 0.0)
        hit = active & (delta_d > 0.0)
        ssthresh = np.where(hit, np.maximum(2.0, beta * W), ssthresh)
        W = np.clip(W + (growth - (1.0 - beta) * W * eta) * dt, 1.0, w_max)

        q_trace[i] = q_new
        w_trace[i] = W
        drop_rate_trace[i] = p * A + overflow
        x_trace[i] = served * share / dt
        q = q_new

    measured = max(measure_steps * dt, dt)
    total_delivered = float(delivered_k.sum())
    share_out = (delivered_k / total_delivered if total_delivered > 0
                 else np.zeros(K))
    events = _loss_events(times, drop_rate_trace,
                          min_gap=float(rtt0.min()), t_lo=warmup)

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
            float(e) for e in eta_sum / max(measure_steps, 1)),
        loss_event_count=events,
        loss_event_rate=events / measured,
        loss_rate=(dropped_t / offered_t if offered_t > 0 else 0.0),
        offered_pkts=offered_t,
        delivered_pkts=delivered_t,
        dropped_pkts=dropped_t,
        max_residual=float(np.abs(residuals).max()) if steps else 0.0,
        residuals=residuals,
        times=times,
        q_trace=q_trace,
        w_trace=w_trace,
        drop_rate_trace=drop_rate_trace,
        x_trace=x_trace,
    )
