"""Fairness and convergence metrics for flow-rate allocations.

The paper's implications are fairness statements — rate-based flows get
less than fair share (Fig. 7), some parallel flows fall behind (Fig. 8),
delay-based control restores fairness ([23]).  This module holds the
standard quantifiers used across the experiments.
"""

from __future__ import annotations

import numpy as np

__all__ = ["jain_index", "time_to_fair"]


def jain_index(rates: np.ndarray) -> float:
    """Jain's fairness index: 1 = perfectly equal, 1/n = one flow hogs."""
    x = np.asarray(rates, dtype=np.float64)
    if len(x) == 0 or np.all(x == 0):
        return float("nan")
    return float(x.sum() ** 2 / (len(x) * np.dot(x, x)))


def time_to_fair(
    times: np.ndarray,
    per_flow_series: np.ndarray,
    threshold: float = 0.9,
    sustain: int = 3,
) -> float:
    """First time the instantaneous Jain index reaches ``threshold`` and
    stays there for ``sustain`` consecutive samples.

    ``per_flow_series`` has shape (n_flows, n_samples): each row a flow's
    rate over time.  Returns ``inf`` if fairness is never sustained.
    """
    t = np.asarray(times, dtype=np.float64)
    series = np.asarray(per_flow_series, dtype=np.float64)
    if series.ndim != 2 or series.shape[1] != len(t):
        raise ValueError(
            f"series must be (n_flows, {len(t)}), got {series.shape}"
        )
    if not (0 < threshold <= 1):
        raise ValueError(f"threshold must be in (0, 1], got {threshold}")
    if sustain < 1:
        raise ValueError(f"sustain must be >= 1, got {sustain}")
    fair = np.array([jain_index(series[:, j]) >= threshold
                     for j in range(series.shape[1])])
    run = 0
    for j, ok in enumerate(fair):
        run = run + 1 if ok else 0
        if run >= sustain:
            return float(t[j - sustain + 1])
    return float("inf")
