"""Multi-timescale burstiness: IDC curves and Hurst-exponent estimators.

The paper's future work asks for "more rigorous analysis on the burstiness
of packet loss process" beyond the PDF.  The standard instruments:

* the **index-of-dispersion-for-counts curve** IDC(T) — variance/mean of
  per-window loss counts as a function of the window size T.  A Poisson
  process is flat at 1; positively-correlated (bursty) processes grow
  with T until the correlation timescale is exhausted;
* **Hurst exponent** estimators (aggregated-variance and rescaled-range)
  for long-range dependence: H = 0.5 for Poisson, H > 0.5 for LRD traffic
  (Leland et al.'s self-similarity framework).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "idc_curve",
    "hurst_aggregated_variance",
    "hurst_rescaled_range",
    "SelfSimilarityReport",
    "self_similarity_report",
]


def _counts(times: np.ndarray, window: float, horizon: float) -> np.ndarray:
    nbins = max(1, int(horizon / window))
    c, _ = np.histogram(times, bins=nbins, range=(0.0, nbins * window))
    return c


def idc_curve(
    times: np.ndarray, windows: np.ndarray, horizon: float
) -> np.ndarray:
    """IDC(T) for each window size T (NaN where fewer than 8 windows fit)."""
    t = np.asarray(times, dtype=np.float64)
    ws = np.asarray(windows, dtype=np.float64)
    if np.any(ws <= 0) or horizon <= 0:
        raise ValueError("windows and horizon must be positive")
    out = np.full(len(ws), np.nan)
    for i, w in enumerate(ws):
        if horizon / w < 8:
            continue
        c = _counts(t, w, horizon)
        m = c.mean()
        if m > 0:
            out[i] = c.var() / m
    return out


def hurst_aggregated_variance(
    times: np.ndarray,
    horizon: float,
    base_window: float,
    n_scales: int = 6,
) -> float:
    """Hurst exponent from the aggregated-variance method.

    Counts are aggregated at windows ``base_window * 2^k``; for a
    self-similar process the variance of the *normalized* aggregated
    series scales as ``m^(2H - 2)``.  Returns NaN when the trace is too
    short to aggregate.
    """
    t = np.asarray(times, dtype=np.float64)
    if base_window <= 0 or horizon <= 0:
        raise ValueError("base_window and horizon must be positive")
    if n_scales < 2:
        raise ValueError(f"need at least 2 scales, got {n_scales}")
    log_m, log_v = [], []
    for k in range(n_scales):
        w = base_window * (2**k)
        if horizon / w < 8:
            break
        c = _counts(t, w, horizon).astype(np.float64)
        c /= w  # rate series, comparable across scales
        v = c.var()
        if v > 0:
            log_m.append(np.log(2**k))
            log_v.append(np.log(v))
    if len(log_m) < 2:
        return float("nan")
    slope = np.polyfit(log_m, log_v, 1)[0]
    return float(1.0 + slope / 2.0)


def hurst_rescaled_range(series: np.ndarray, min_chunk: int = 8) -> float:
    """Hurst exponent via the classic R/S (rescaled range) statistic.

    ``series`` is any stationary increment series (e.g. per-window loss
    counts).  Returns NaN for series too short to split.
    """
    x = np.asarray(series, dtype=np.float64)
    n = len(x)
    if min_chunk < 4:
        raise ValueError(f"min_chunk must be >= 4, got {min_chunk}")
    if n < 2 * min_chunk:
        return float("nan")
    log_n, log_rs = [], []
    size = min_chunk
    while size <= n // 2:
        m = n // size
        rs_vals = []
        for i in range(m):
            chunk = x[i * size : (i + 1) * size]
            dev = chunk - chunk.mean()
            z = np.cumsum(dev)
            r = z.max() - z.min()
            s = chunk.std()
            if s > 0:
                rs_vals.append(r / s)
        if rs_vals:
            log_n.append(np.log(size))
            log_rs.append(np.log(np.mean(rs_vals)))
        size *= 2
    if len(log_n) < 2:
        return float("nan")
    return float(np.polyfit(log_n, log_rs, 1)[0])


@dataclass
class SelfSimilarityReport:
    """Multi-timescale burstiness summary of a loss trace."""

    windows: np.ndarray
    idc: np.ndarray
    hurst_var: float
    hurst_rs: float

    @property
    def idc_growth(self) -> float:
        """IDC at the largest valid window over IDC at the smallest —
        ~1 for Poisson, large for clustered processes."""
        valid = self.idc[~np.isnan(self.idc)]
        if len(valid) < 2 or valid[0] <= 0:
            return float("nan")
        return float(valid[-1] / valid[0])


def self_similarity_report(
    times: np.ndarray,
    horizon: float,
    base_window: float = 0.1,
    n_scales: int = 6,
) -> SelfSimilarityReport:
    """Run the full multi-timescale battery on a loss-timestamp trace."""
    windows = base_window * (2.0 ** np.arange(n_scales))
    idc = idc_curve(times, windows, horizon)
    counts = _counts(np.asarray(times, dtype=np.float64), base_window, horizon)
    return SelfSimilarityReport(
        windows=windows,
        idc=idc,
        hurst_var=hurst_aggregated_variance(times, horizon, base_window, n_scales),
        hurst_rs=hurst_rescaled_range(counts),
    )
