"""CBR probe runs and the paper's two-packet-size validation.

Methodology reproduced from §3.1: for each experiment, two 5-minute CBR
runs probe the same path — one with 48-byte packets, one with 400-byte
packets — and the measurement is kept only if the two traces exhibit
similar loss patterns (showing the probe load itself is not the cause of
the losses).  Loss timestamps come from the deterministic CBR send
schedule; intervals are normalized by the path RTT.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from repro.core.intervals import intervals_from_trace
from repro.internet.pathmodel import PathLossModel
from repro.internet.paths import PathRtt

__all__ = ["ProbeRun", "ProbeConfig", "run_probe", "validate_pair"]

#: The paper's two probe packet sizes (bytes).
PROBE_SIZES = (48, 400)

#: validate_pair's acceptance thresholds.
MIN_LOSSES = 10
REL_TOLERANCE = 0.5


@dataclass
class ProbeConfig:
    """Probe-flow parameters.

    ``interval`` is the CBR inter-packet gap.  The paper does not state the
    probe rate; we default to 1 ms (384 kbps at 48 B, 3.2 Mbps at 400 B),
    fine enough to resolve sub-RTT clustering on long paths while keeping
    the load negligible relative to 2006 backbone capacities — the
    assumption the 48 B/400 B validation pair then tests.
    """

    interval: float = 0.001
    duration: float = 300.0  # the paper's 5-minute runs
    jitter: float = 0.05  # OS send-timing noise (fraction of interval)

    def __post_init__(self):
        if self.interval <= 0 or self.duration <= 0:
            raise ValueError("interval and duration must be positive")
        if not (0.0 <= self.jitter < 1.0):
            raise ValueError(f"jitter must be in [0, 1), got {self.jitter}")
        if self.n_probes == 0:
            raise ValueError(
                f"duration {self.duration} is shorter than interval "
                f"{self.interval}: the run would send no probes"
            )

    @property
    def n_probes(self) -> int:
        """Probes one run sends: ``floor(duration / interval)``, where a
        quotient a few ulps short of a whole number (0.3 / 0.1) counts
        as that number."""
        return int(self.duration / self.interval * (1.0 + 1e-12))


@dataclass
class ProbeRun:
    """Result of one CBR probe run over one path."""

    path: PathRtt
    packet_size: int
    n_sent: int
    loss_times: np.ndarray  # seconds, send times of lost probes
    rtt: float  # path RTT used for normalization

    @property
    def n_lost(self) -> int:
        """Number of probes lost in this run."""
        return len(self.loss_times)

    @property
    def loss_rate(self) -> float:
        """Fraction of probes lost."""
        return self.n_lost / self.n_sent if self.n_sent else float("nan")

    def intervals_rtt(self) -> np.ndarray:
        """RTT-normalized inter-loss intervals."""
        return intervals_from_trace(self.loss_times, self.rtt)


def run_probe(
    path: PathRtt,
    model: PathLossModel,
    rng: np.random.Generator,
    config: Optional[ProbeConfig] = None,
    packet_size: int = 400,
    episodes: Optional[tuple[np.ndarray, np.ndarray]] = None,
    mask_hook: Optional[Callable[[np.ndarray, np.ndarray], np.ndarray]] = None,
) -> ProbeRun:
    """Execute one CBR probe run against a path's loss model.

    ``mask_hook(times, lost) -> lost`` post-processes the loss mask before
    loss timestamps are extracted — the seam fault plans use to fold path
    outages and loss spikes into a run (:mod:`repro.faults`).
    """
    cfg = config or ProbeConfig()
    n = cfg.n_probes
    times = np.arange(n) * cfg.interval
    if cfg.jitter > 0:
        times = times + cfg.interval * cfg.jitter * (rng.random(n) - 0.5)
        times = np.maximum.accumulate(np.maximum(times, 0.0))  # keep ordered
    lost = model.lost_mask(times, rng, episodes=episodes)
    if mask_hook is not None:
        lost = mask_hook(times, lost)
    return ProbeRun(
        path=path,
        packet_size=packet_size,
        n_sent=n,
        loss_times=times[lost],
        rtt=path.base_rtt,
    )


def validate_pair(
    small: ProbeRun, large: ProbeRun,
    rel_tolerance: float = REL_TOLERANCE, min_losses: int = MIN_LOSSES,
) -> bool:
    """The paper's acceptance check: the 48 B and 400 B traces must
    "exhibit similar loss patterns".

    Accepts when both runs saw at least ``min_losses`` losses and their
    loss rates agree within ``rel_tolerance`` (relative to the mean).  If
    the larger probe lost dramatically more, the probe load itself was
    shaping the path and the measurement is discarded.

    The pair must actually be ordered (small, large): passing the 400 B
    run first is a harness bug, not a measurement to validate, and raises
    ``ValueError``.  (Equal sizes are tolerated — two same-size runs are a
    legitimate, if unusual, similarity check.)
    """
    if small.packet_size > large.packet_size:
        raise ValueError(
            f"validate_pair expects (small, large) probe runs, got sizes "
            f"({small.packet_size}, {large.packet_size})"
        )
    if small.n_lost < min_losses or large.n_lost < min_losses:
        return False
    a, b = small.loss_rate, large.loss_rate
    mean = 0.5 * (a + b)
    if mean == 0:
        return False
    return abs(a - b) / mean <= rel_tolerance
