"""Burstiness metrics for point processes of packet losses.

The paper quantifies burstiness informally ("more than 95% of the packet
losses cluster within short time periods smaller than 0.01 RTT"); this
module provides that statistic plus the standard rigor the paper's future
work calls for: coefficient of variation, index of dispersion for counts,
and burst clustering.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "fraction_within",
    "coefficient_of_variation",
    "index_of_dispersion",
    "Burst",
    "cluster_bursts",
    "burst_sizes",
    "burstiness_summary",
    "BurstinessSummary",
]


def fraction_within(intervals_rtt: np.ndarray, threshold_rtt: float) -> float:
    """Fraction of loss intervals strictly smaller than ``threshold_rtt``.

    ``fraction_within(x, 0.01)`` is the paper's headline number: the share
    of losses arriving within 0.01 RTT of the previous loss.
    """
    x = np.asarray(intervals_rtt, dtype=np.float64)
    if threshold_rtt <= 0:
        raise ValueError(f"threshold must be positive, got {threshold_rtt}")
    if len(x) == 0:
        return float("nan")
    return float(np.mean(x < threshold_rtt))


def coefficient_of_variation(intervals: np.ndarray) -> float:
    """CV = std/mean of intervals.  1 for Poisson; >> 1 when bursty."""
    x = np.asarray(intervals, dtype=np.float64)
    if len(x) < 2:
        return float("nan")
    m = x.mean()
    if m == 0:
        return float("inf")
    return float(x.std() / m)


def index_of_dispersion(times: np.ndarray, window: float, horizon: float) -> float:
    """Index of dispersion for counts: var/mean of per-window loss counts.

    1 for a Poisson process at every window size; grows with window for
    positively correlated (bursty) processes.
    """
    if window <= 0 or horizon <= 0:
        raise ValueError("window and horizon must be positive")
    t = np.asarray(times, dtype=np.float64)
    nbins = max(1, int(horizon / window))
    counts, _ = np.histogram(t, bins=nbins, range=(0.0, nbins * window))
    m = counts.mean()
    if m == 0:
        return float("nan")
    return float(counts.var() / m)


@dataclass
class Burst:
    """A maximal run of losses separated by gaps below the clustering gap."""

    start: float
    end: float
    count: int

    @property
    def duration(self) -> float:
        """Span in seconds from first to last element."""
        return self.end - self.start


def cluster_bursts(times: np.ndarray, gap: float) -> list[Burst]:
    """Group loss timestamps into bursts: a new burst starts whenever the
    gap from the previous loss is >= ``gap`` seconds.

    With ``gap`` = 1 RTT this is exactly the "loss event" granularity used
    by TFRC and by the paper's Figures 5/6 reasoning.
    """
    if gap <= 0:
        raise ValueError(f"gap must be positive, got {gap}")
    t = np.asarray(times, dtype=np.float64)
    if len(t) == 0:
        return []
    if np.any(np.diff(t) < 0):
        raise ValueError("timestamps not sorted")
    # Boundaries where a new burst begins.
    breaks = np.flatnonzero(np.diff(t) >= gap) + 1
    starts = np.concatenate(([0], breaks))
    ends = np.concatenate((breaks, [len(t)]))
    return [
        Burst(start=float(t[s]), end=float(t[e - 1]), count=int(e - s))
        for s, e in zip(starts, ends)
    ]


def burst_sizes(times: np.ndarray, gap: float) -> np.ndarray:
    """Per-burst loss counts at the given clustering gap, vectorized.

    Same clustering rule as :func:`cluster_bursts` but returns only the
    int64 size array, with no per-burst objects — the form the summary
    statistics need.  Empty input yields an empty array.
    """
    if gap <= 0:
        raise ValueError(f"gap must be positive, got {gap}")
    t = np.asarray(times, dtype=np.float64)
    if len(t) == 0:
        return np.zeros(0, dtype=np.int64)
    if np.any(np.diff(t) < 0):
        raise ValueError("timestamps not sorted")
    breaks = np.flatnonzero(np.diff(t) >= gap) + 1
    bounds = np.concatenate(([0], breaks, [len(t)]))
    return np.diff(bounds).astype(np.int64)


@dataclass
class BurstinessSummary:
    """One-stop statistics for a loss trace (RTT-normalized view)."""

    n_losses: int
    frac_within_001: float  # < 0.01 RTT
    frac_within_1: float  # < 1 RTT
    cv: float
    mean_interval_rtt: float
    n_bursts: int  # at 1-RTT clustering gap
    mean_burst_size: float
    max_burst_size: int

    def is_burstier_than_poisson(self) -> bool:
        """CV materially above 1 or strong sub-0.01-RTT mass."""
        return self.cv > 1.5 or self.frac_within_001 > 0.3


def burstiness_summary(times: np.ndarray, rtt: float) -> BurstinessSummary:
    """Compute the full summary for a loss-timestamp trace."""
    from repro.core.intervals import intervals_from_trace

    t = np.asarray(times, dtype=np.float64)
    x = intervals_from_trace(t, rtt)
    sizes = burst_sizes(t, gap=rtt)
    n_bursts = len(sizes)
    if n_bursts == 0:
        sizes = np.array([0])
    return BurstinessSummary(
        n_losses=len(t),
        frac_within_001=fraction_within(x, 0.01) if len(x) else float("nan"),
        frac_within_1=fraction_within(x, 1.0) if len(x) else float("nan"),
        cv=coefficient_of_variation(x),
        mean_interval_rtt=float(x.mean()) if len(x) else float("nan"),
        n_bursts=n_bursts,
        mean_burst_size=float(sizes.mean()),
        max_burst_size=int(sizes.max()),
    )
