"""Figure 8: latency of parallel flows transferring a fixed payload.

For each (flow count, RTT) cell, a 64 MB payload is split into equal
chunks over N parallel NewReno flows on the shared dumbbell; completion is
the slowest flow's finish time, normalized by the theoretic lower bound
(5.39 s at 100 Mbps).  The paper's observations: latency sits well above
the bound, grows with RTT, and is wildly variable at RTT = 200 ms with few
flows (the 4-flow cell's standard deviation is off the chart) — because
only the flows that happen to lose slow-start packets fall behind.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Type

import numpy as np

from repro.apps.latency import LatencyStats, summarize_latencies
from repro.apps.parallel_transfer import ParallelTransfer, ParallelTransferConfig
from repro.config import RunConfig
from repro.core.report import format_table
from repro.experiments.common import Scale, add_noise_fleet, current_scale
from repro.obs.runtime import open_flight_log
from repro.sim.engine import Simulator
from repro.sim.rng import RngStreams
from repro.sim.topology import DumbbellConfig, build_dumbbell
from repro.tcp.newreno import NewRenoSender

__all__ = ["Fig8Result", "run_fig8", "run_fig8_cell"]

#: Sim-seconds per ``Simulator.run`` slice of a cell.  Whatever is simulated
#: after the last flow completes is noise-only traffic nobody reads, and the
#: slice is the most of it a cell can pay; the result, ``max(completions)``,
#: does not depend on the slicing.
COMPLETION_POLL_S = 0.010


@dataclass
class Fig8Result:
    """Reproduced Figure 8 grid: stats per (flow count, RTT) cell.

    ``failures`` lists repetitions that died permanently under a
    skip/retry policy as ``(flows, rtt, error)``; their cells aggregate
    the surviving repetitions and the rendering carries an explicit
    degradation note.
    """

    cells: dict[tuple[int, float], LatencyStats]
    total_bytes: int
    capacity_bps: float
    bound_seconds: float
    failures: list = None  # list[(n_flows, rtt, error_text)]

    def __post_init__(self):
        if self.failures is None:
            self.failures = []

    def series_for_rtt(self, rtt: float) -> tuple[list[int], list[float]]:
        """X (flow counts) and Y (mean normalized latency) for one curve."""
        pts = sorted(
            (n, st.mean) for (n, r), st in self.cells.items() if r == rtt
        )
        return [p[0] for p in pts], [p[1] for p in pts]

    def to_text(self) -> str:
        """Render the paper-shaped text block for this result."""
        rows = []
        for (n, rtt), st in sorted(self.cells.items(), key=lambda kv: (kv[0][1], kv[0][0])):
            rows.append(
                [n, f"{rtt * 1e3:.0f}ms", round(st.mean, 2), round(st.std, 2),
                 round(st.min, 2), round(st.max, 2),
                 "yes" if st.unpredictable else "no"]
            )
        text = format_table(
            ["flows", "RTT", "mean", "std", "min", "max", "unpredictable"],
            rows,
            title=(
                "Figure 8 — Normalized parallel-transfer latency "
                f"({self.total_bytes / 2**20:.0f} MB over "
                f"{self.capacity_bps / 1e6:.0f} Mbps; bound {self.bound_seconds:.2f} s)"
            ),
        )
        if self.failures:
            lost = ", ".join(
                f"({n} flows, {rtt * 1e3:.0f}ms): {err}"
                for n, rtt, err in self.failures
            )
            text += (
                f"\nDEGRADED: {len(self.failures)} repetition(s) failed and "
                f"were excluded: {lost}"
            )
        return text


def run_fig8_cell(
    n_flows: int,
    rtt: float,
    seed: int,
    scale: Optional[Scale] = None,
    sender_cls: Type = NewRenoSender,
    with_noise: bool = True,
    buffer_bdp_fraction: float = 0.5,
) -> float:
    """One repetition of one (flows, RTT) cell: normalized latency."""
    sc = current_scale(scale)
    streams = RngStreams(seed)
    sim = Simulator()
    cfg = DumbbellConfig(bottleneck_rate_bps=sc.fig8_capacity_bps)
    cfg.buffer_pkts = max(4, int(cfg.bdp_packets(max(rtt, 0.010)) * buffer_bdp_fraction))
    db = build_dumbbell(sim, cfg)
    if with_noise:
        add_noise_fleet(sim, db, streams, max(2, sc.n_noise_flows // 4), sc.noise_load)

    pt_cfg = ParallelTransferConfig(
        total_bytes=sc.fig8_total_bytes, n_flows=n_flows, sender_cls=sender_cls
    )
    pt = ParallelTransfer(sim, db, rtt=rtt, config=pt_cfg)
    # Small start jitter models process-launch skew in a real cluster.
    jitter = streams.stream("start-jitter")
    for snd in pt.senders:
        snd.start(float(jitter.uniform(0.0, 0.01)))
    from repro.apps.latency import lower_bound

    bound = lower_bound(sc.fig8_total_bytes, sc.fig8_capacity_bps)
    # Run in slices so the background noise stops as soon as the slowest
    # flow finishes, instead of simulating the full horizon.
    horizon = 60.0 * bound
    t = 0.0
    while t < horizon and len(pt._completions) < n_flows:
        t += COMPLETION_POLL_S
        sim.run(until=t)
    if len(pt._completions) < n_flows:
        return float("inf")
    return max(pt._completions) / bound


def _run_cell_args(args: tuple) -> tuple[tuple[int, float], float]:
    """Picklable worker: one (flows, rtt, seed, scale) repetition."""
    n, rtt, seed, sc = args
    return (n, rtt), run_fig8_cell(n, rtt, seed=seed, scale=sc)


def run_fig8(
    seed: int = 1,
    scale: Optional[Scale] = None,
    workers: Optional[int] = None,
    on_error: Optional[str] = None,
) -> Fig8Result:
    """Run the full Figure 8 grid.

    ``workers`` > 1 fans the grid's repetitions out over a process pool
    (:mod:`repro.experiments.parallel`); every repetition derives its own
    seed, so results are identical to the serial run.  ``on_error``
    (default: ``REPRO_ON_ERROR``, then ``"raise"``) selects the resilience
    policy: under ``"skip"``/``"retry"``, a permanently failed repetition
    lands in ``result.failures`` and its cell aggregates the survivors.
    """
    sc = current_scale(scale)
    from repro.apps.latency import lower_bound
    from repro.experiments.parallel import parallel_map

    if on_error is None:
        on_error = RunConfig.from_env().on_error or "raise"
    jobs = [
        (n, rtt, seed * 10_000 + rep * 100 + n, sc)
        for rtt in sc.fig8_rtts
        for n in sc.fig8_flow_counts
        for rep in range(sc.fig8_repetitions)
    ]
    # The grid has no single simulator clock, so the flight record is a
    # parent-side FlightLog: manifest + one retroactive span per cell
    # repetition, logged at the fan-in point of parallel_map.
    flight = open_flight_log(
        "fig8",
        manifest={
            "seed": seed,
            "scale": sc.name,
            "total_bytes": sc.fig8_total_bytes,
            "flow_counts": list(sc.fig8_flow_counts),
            "rtts": list(sc.fig8_rtts),
            "repetitions": sc.fig8_repetitions,
            "on_error": on_error,
        },
    )
    with flight.span("grid", jobs=len(jobs)):
        results = parallel_map(
            _run_cell_args, jobs, workers=workers, on_error=on_error,
            tracer=flight.tracer, span_name="fig8.cell",
        )

    by_cell: dict[tuple[int, float], list[float]] = {}
    failures: list[tuple[int, float, str]] = []
    for res in results:
        if not res.ok:
            n, rtt, _, _ = jobs[res.index]
            failures.append((n, rtt, res.error_text))
            continue
        key, sample = res.value
        by_cell.setdefault(key, []).append(sample)

    cells: dict[tuple[int, float], LatencyStats] = {}
    for (n, rtt), samples in by_cell.items():
        finite = np.array([s for s in samples if np.isfinite(s)])
        if len(finite) == 0:
            finite = np.array([np.nan])
        cells[(n, rtt)] = summarize_latencies(n, rtt, finite)
    flight.telemetry = {
        "flows": [],
        "raster": None,
        "series": {},
        "cells": {
            f"{n}x{rtt}": {
                "mean": round(st.mean, 6) if st.mean == st.mean else None,
                "std": round(st.std, 6) if st.std == st.std else None,
                "n": int(len(st.samples)),
            }
            for (n, rtt), st in sorted(cells.items())
        },
    }
    flight.finalize()
    return Fig8Result(
        cells=cells,
        total_bytes=sc.fig8_total_bytes,
        capacity_bps=sc.fig8_capacity_bps,
        bound_seconds=lower_bound(sc.fig8_total_bytes, sc.fig8_capacity_bps),
        failures=failures,
    )
