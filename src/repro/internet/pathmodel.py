"""Per-path bursty loss processes (the Internet-substitute's core).

We cannot probe the 2006 Internet, so each directed path gets a two-
timescale stochastic loss model whose structure mirrors the paper's §3.3
diagnosis of where burstiness comes from:

* **Congestion episodes** — a Poisson process of drop windows.  At a
  DropTail bottleneck, drops persist from buffer overflow until senders
  back off, "usually half an RTT later", so episode durations are
  exponential with mean ``~0.5 RTT`` of the path.  Probes falling inside a
  window are dropped with high probability — producing runs of
  consecutive probe losses (sub-RTT intervals).
* **Thin random loss** — an independent per-packet loss probability
  (link noise, route flaps), producing Poisson-like isolated losses.

Heterogeneity across the 650 paths (episode rate, drop probability,
random-loss rate, RTT) is what spreads Figure 4's PDF relative to the
single-bottleneck Figures 2–3.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.internet.paths import PathRtt
from repro.sim.rng import RngStreams

__all__ = ["PathLossModel", "sample_path_loss_model"]

# sample_path_loss_model's calibrated defaults (the analytic kernel draws
# from the same constants without building the model object).
EPISODE_RATE_MEAN = 0.3
DROP_PROB_RANGE = (0.6, 0.95)
RANDOM_LOSS_RANGE = (3e-5, 4e-4)
DURATION_RTT_FRACTION = 0.025
DURATION_FLOOR = 2.5e-3


@dataclass
class PathLossModel:
    """Stochastic loss model of one directed path."""

    rtt: float  # seconds (normalization constant for analysis)
    episode_rate: float  # congestion episodes per second
    episode_mean_duration: float  # seconds
    episode_drop_prob: float  # per-packet drop probability inside a window
    random_loss_prob: float  # per-packet independent loss probability

    def __post_init__(self):
        if self.rtt <= 0:
            raise ValueError(f"rtt must be positive, got {self.rtt}")
        if self.episode_rate < 0:
            raise ValueError(f"episode_rate must be non-negative")
        if self.episode_mean_duration <= 0:
            raise ValueError("episode_mean_duration must be positive")
        if not (0.0 <= self.episode_drop_prob <= 1.0):
            raise ValueError("episode_drop_prob must be in [0, 1]")
        if not (0.0 <= self.random_loss_prob <= 1.0):
            raise ValueError("random_loss_prob must be in [0, 1]")

    # ------------------------------------------------------------------
    def sample_episodes(
        self, horizon: float, rng: np.random.Generator
    ) -> tuple[np.ndarray, np.ndarray]:
        """Episode (start, duration) arrays over ``[0, horizon]``."""
        if horizon <= 0:
            raise ValueError(f"horizon must be positive, got {horizon}")
        n = rng.poisson(self.episode_rate * horizon)
        starts = np.sort(rng.uniform(0.0, horizon, size=n))
        durations = rng.exponential(self.episode_mean_duration, size=n)
        return starts, durations

    def lost_mask(
        self,
        probe_times: np.ndarray,
        rng: np.random.Generator,
        episodes: Optional[tuple[np.ndarray, np.ndarray]] = None,
    ) -> np.ndarray:
        """Boolean mask: which probes are lost.

        ``episodes`` can be passed explicitly so that two back-to-back
        probe runs (the paper's 48 B / 400 B validation pair) see the same
        network weather.
        """
        t = np.asarray(probe_times, dtype=np.float64)
        if len(t) == 0:
            return np.zeros(0, dtype=bool)
        if episodes is None:
            episodes = self.sample_episodes(float(t[-1]) + 1e-9, rng)
        starts, durations = episodes

        inside = np.zeros(len(t), dtype=bool)
        if len(starts):
            idx = np.searchsorted(starts, t, side="right") - 1
            valid = idx >= 0
            inside[valid] = t[valid] < starts[idx[valid]] + durations[idx[valid]]

        u = rng.random(len(t))
        lost = np.where(inside, u < self.episode_drop_prob, u < self.random_loss_prob)
        return lost


def sample_path_loss_model(
    path: PathRtt,
    streams: RngStreams,
    episode_rate_mean: float = EPISODE_RATE_MEAN,
    drop_prob_range: tuple[float, float] = DROP_PROB_RANGE,
    random_loss_range: tuple[float, float] = RANDOM_LOSS_RANGE,
    duration_rtt_fraction: float = DURATION_RTT_FRACTION,
    duration_floor: float = DURATION_FLOOR,
) -> PathLossModel:
    """Draw one path's heterogeneous loss parameters (deterministic per
    path name and seed).

    Episode durations scale with the path RTT — the overflow slice of the
    DropTail cycle in §3.3 — with a floor so short paths still see
    multi-packet bursts; episode rates are lognormal around
    ``episode_rate_mean``; drop/random-loss probabilities are drawn per
    path.  The defaults were calibrated so a campaign with the default
    :class:`~repro.internet.probe.ProbeConfig` reproduces Figure 4's
    composition (~40% of intervals below 0.01 RTT, ~60% below 1 RTT).
    """
    rng = streams.stream(f"loss/{path.src.hostname}/{path.dst.hostname}")
    rate = float(episode_rate_mean * rng.lognormal(mean=0.0, sigma=0.8))
    lo, hi = drop_prob_range
    drop_p = float(rng.uniform(lo, hi))
    rlo, rhi = random_loss_range
    # Log-uniform: loss floors span orders of magnitude across real paths.
    rand_p = float(np.exp(rng.uniform(np.log(rlo), np.log(rhi))))
    return PathLossModel(
        rtt=path.base_rtt,
        episode_rate=rate,
        episode_mean_duration=max(duration_floor, duration_rtt_fraction * path.base_rtt),
        episode_drop_prob=drop_p,
        random_loss_prob=rand_p,
    )
