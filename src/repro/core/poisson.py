"""Poisson references and statistical comparison.

The paper's argument is comparative: the measured loss process is "much
more bursty than the Poisson process with the same average arrival rate".
This module generates that reference process and provides the formal
versions of the comparison (Kolmogorov–Smirnov against the exponential,
density ratio in the smallest bin).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

__all__ = [
    "poisson_process",
    "exponential_ks_test",
    "first_bin_excess",
    "PoissonComparison",
    "compare_to_poisson",
]


def poisson_process(
    rate: float, horizon: float, rng: np.random.Generator
) -> np.ndarray:
    """Sample arrival times of a homogeneous Poisson process on [0, horizon]."""
    if rate <= 0 or horizon <= 0:
        raise ValueError("rate and horizon must be positive")
    n = rng.poisson(rate * horizon)
    return np.sort(rng.uniform(0.0, horizon, size=n))


def _checked_intervals(intervals: np.ndarray) -> np.ndarray:
    """``intervals`` as float64; ``ValueError`` if the KS test cannot take them."""
    x = np.asarray(intervals, dtype=np.float64)
    if len(x) < 2:
        raise ValueError(f"need at least 2 intervals, got {len(x)}")
    for what, bad in (("non-finite", ~np.isfinite(x)), ("negative", x < 0)):
        if bad.any():
            raise ValueError(
                f"{int(bad.sum())} of {len(x)} intervals are {what}"
            )
    return x


def exponential_ks_test(intervals: np.ndarray) -> tuple[float, float]:
    """KS statistic and p-value of intervals against Exp(mean=sample mean).

    Low p-values reject the Poisson hypothesis.  (With the rate estimated
    from the sample the test is approximate — fine for the paper's purpose
    of showing a *gross* departure.)
    """
    x = _checked_intervals(intervals)
    m = x.mean()
    if m <= 0:
        return 1.0, 0.0
    # The only scipy use in the package, and most of its cold-start cost
    # (~0.9 s, ~65 MB): paid by whoever asks for a p-value, not on import.
    from scipy import stats

    res = stats.kstest(x, "expon", args=(0, m))
    return float(res.statistic), float(res.pvalue)


def first_bin_excess(
    intervals_rtt: np.ndarray, bin_size: float = 0.02, max_rtt: float = 2.0
) -> float:
    """Ratio of measured to Poisson density in the first PDF bin.

    This is the visual gap at x→0 in the paper's Figures 2–4, as a number:
    how many times more probable a sub-0.02-RTT loss interval is than the
    same-rate Poisson process predicts.
    """
    from repro.core.pdf import interval_pdf, poisson_reference_pdf

    p = interval_pdf(intervals_rtt, bin_size=bin_size, max_rtt=max_rtt)
    if p.n == 0:
        return float("nan")
    ref = poisson_reference_pdf(p.rate_per_rtt(), p.edges)
    if ref[0] <= 0:
        return float("inf")
    return float(p.density[0] / ref[0])


@dataclass
class PoissonComparison:
    """Result of comparing a loss process to its same-rate Poisson twin.

    ``ks_pvalue`` comes from :func:`exponential_ks_test` of ``intervals``,
    evaluated on first read and kept.
    """

    intervals: np.ndarray = field(repr=False, compare=False)
    first_bin_excess: float
    cv: float

    @cached_property
    def _ks(self) -> tuple[float, float]:
        return exponential_ks_test(self.intervals)

    @property
    def ks_pvalue(self) -> float:
        return self._ks[1]

    @property
    def rejects_poisson(self) -> bool:
        """Strong evidence the process is not Poisson."""
        return self.ks_pvalue < 0.01


def compare_to_poisson(intervals_rtt: np.ndarray) -> PoissonComparison:
    """Run the full comparison battery on RTT-normalized intervals."""
    from repro.core.burstiness import coefficient_of_variation

    x = _checked_intervals(intervals_rtt)
    return PoissonComparison(
        intervals=x,
        first_bin_excess=first_bin_excess(x),
        cv=coefficient_of_variation(x),
    )
