"""MapReduce shuffle predictability (paper future work + §5 lesson).

The paper's §5 advises: in a tightly controlled environment, "a rate-based
implementation has an advantage in that it makes TCP more fair, and leads
to better predictability of throughput for concurrent flows."  Its future
work proposes testing this on "a complete graph topology in MapReduce".

This driver runs the same M x R shuffle under window-based (NewReno) and
rate-based (paced) senders across several seeds and compares the
*distributions* of shuffle makespan: the rate-based shuffle should show
visibly lower run-to-run variance.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.apps.mapreduce import MapReduceShuffle, ShuffleConfig
from repro.config import RunConfig
from repro.core.report import format_table
from repro.experiments.common import Scale, current_scale
from repro.sim.engine import Simulator
from repro.sim.rng import RngStreams
from repro.tcp.newreno import NewRenoSender
from repro.tcp.pacing import PacedSender

__all__ = ["ShuffleClassStats", "MapReduceResult", "run_mapreduce"]


@dataclass
class ShuffleClassStats:
    """Makespan statistics of one sender class across seeds."""

    label: str
    latencies: np.ndarray  # normalized makespans
    spreads: np.ndarray  # straggler spreads (seconds)

    @property
    def mean(self) -> float:
        """Mean normalized makespan across seeds."""
        return float(self.latencies.mean())

    @property
    def std(self) -> float:
        """Standard deviation of the normalized makespan across seeds."""
        return float(self.latencies.std())

    @property
    def worst(self) -> float:
        """Worst (largest) normalized makespan observed."""
        return float(self.latencies.max())

    @property
    def mean_spread(self) -> float:
        """Mean straggler spread: slowest minus fastest reducer completion
        within a shuffle — the §5 fairness/predictability metric."""
        return float(self.spreads.mean())


@dataclass
class MapReduceResult:
    """Window-based vs rate-based shuffle statistics.

    ``failures`` lists seeds that died permanently under a skip/retry
    policy as ``(class label, seed, error)``; the class statistics then
    aggregate the surviving seeds only.
    """

    window: ShuffleClassStats
    rate: ShuffleClassStats
    config: ShuffleConfig
    failures: list = None  # list[(label, seed, error_text)]

    def __post_init__(self):
        if self.failures is None:
            self.failures = []

    def to_text(self) -> str:
        """Render the paper-shaped text block for this result."""
        rows = [
            [c.label, round(c.mean, 3), round(c.std, 4), round(c.worst, 3),
             round(float(c.spreads.mean()), 4)]
            for c in (self.window, self.rate)
        ]
        head = format_table(
            ["sender class", "mean latency", "std", "worst", "straggler spread(s)"],
            rows,
            title=(
                f"MapReduce shuffle ({self.config.n_mappers}x"
                f"{self.config.n_reducers}, "
                f"{self.config.bytes_per_partition / 2**20:.2g} MB/partition) — "
                "normalized makespan across seeds"
            ),
        )
        ratio = (
            self.window.mean_spread / self.rate.mean_spread
            if self.rate.mean_spread > 0
            else float("inf")
        )
        text = head + (
            f"\nstraggler spread (window/rate ratio): {ratio:.1f}x "
            "(paper §5: rate-based is fairer across concurrent flows)"
        )
        if self.failures:
            lost = ", ".join(
                f"{label} seed {seed}: {err}" for label, seed, err in self.failures
            )
            text += (
                f"\nDEGRADED: {len(self.failures)} shuffle run(s) failed and "
                f"were excluded: {lost}"
            )
        return text


def _shuffle_worker(job: tuple) -> tuple[float, float]:
    """Picklable worker: one seeded shuffle -> (latency, spread)."""
    seed, cfg = job
    sim = Simulator()
    shuffle = MapReduceShuffle(sim, cfg, streams=RngStreams(seed))
    res = shuffle.run(horizon=600.0)
    return res.normalized_latency, res.straggler_spread


def _run_class(
    sender_cls,
    seeds,
    cfg: ShuffleConfig,
    workers=None,
    on_error: str = "raise",
    failures: Optional[list] = None,
) -> ShuffleClassStats:
    """All seeds of one sender class, optionally fanned over processes.

    Each seeded run is an independent job, so parallel results match the
    serial ones exactly; permanently failed seeds are appended to
    ``failures`` and excluded from the statistics.
    """
    from repro.experiments.parallel import parallel_map

    jobs = [(seed, cfg) for seed in seeds]
    out = parallel_map(_shuffle_worker, jobs, workers=workers, on_error=on_error)
    lats, spreads = [], []
    for res in out:
        if not res.ok:
            if failures is not None:
                failures.append(
                    (sender_cls.variant, seeds[res.index], res.error_text)
                )
            continue
        lat, spread = res.value
        lats.append(lat)
        spreads.append(spread)
    return ShuffleClassStats(
        label=sender_cls.variant,
        latencies=np.asarray(lats),
        spreads=np.asarray(spreads),
    )


def run_mapreduce(
    seed: int = 1,
    scale: Optional[Scale] = None,
    n_seeds: int = 5,
    workers: Optional[int] = None,
    on_error: Optional[str] = None,
) -> MapReduceResult:
    """Run the shuffle comparison at the active scale.

    ``workers`` fans seeded runs over a process pool (``None``: the
    ``REPRO_WORKERS`` environment variable, then serial) with results
    identical to serial execution; ``on_error`` (default:
    ``REPRO_ON_ERROR``, then ``"raise"``) selects the resilience policy.
    """
    sc = current_scale(scale)
    if on_error is None:
        on_error = RunConfig.from_env().on_error or "raise"
    # Shuffle sizing follows the scale's Figure 8 budget.  Partitions must
    # be long enough that congestion-avoidance dynamics (not slow-start
    # quantization) set the reducer skew: half the per-reducer share at
    # fast scale, the full share at paper scale, with a buffer deep enough
    # for the larger paper-scale incast.
    n = 4 if sc.name == "fast" else 8
    divisor = n * n * 2 if sc.name == "fast" else n * n
    per_partition = max(128 * 1024, sc.fig8_total_bytes // divisor)
    buffer_pkts = 32 if sc.name == "fast" else 64
    cfg_window = ShuffleConfig(
        n_mappers=n, n_reducers=n, bytes_per_partition=per_partition,
        sender_cls=NewRenoSender,
        downlink_rate_bps=sc.fig8_capacity_bps, buffer_pkts=buffer_pkts,
    )
    cfg_rate = ShuffleConfig(
        n_mappers=n, n_reducers=n, bytes_per_partition=per_partition,
        sender_cls=PacedSender,
        downlink_rate_bps=sc.fig8_capacity_bps, buffer_pkts=buffer_pkts,
    )
    seeds = [seed * 100 + i for i in range(n_seeds)]
    failures: list = []
    return MapReduceResult(
        window=_run_class(
            NewRenoSender, seeds, cfg_window,
            workers=workers, on_error=on_error, failures=failures,
        ),
        rate=_run_class(
            PacedSender, seeds, cfg_rate,
            workers=workers, on_error=on_error, failures=failures,
        ),
        config=cfg_window,
        failures=failures,
    )
