"""Synthetic path RTT model for the PlanetLab substitute.

The paper reports path RTTs "from 2ms to more than 300ms, depending on the
time of the day."  We synthesize a deterministic (seeded) RTT matrix from
coarse region geography — base latencies per region pair plus per-path
jitter — and a diurnal multiplier, so every path's RTT is plausible,
reproducible, and time-varying.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.internet.sites import SITES, Region, Site
from repro.sim.rng import RngStreams

__all__ = ["PathRtt", "RttMatrix", "build_rtt_matrix", "synthesize_path"]

# One-way "distance class" per region pair: base RTT in seconds for a path
# between regions.  Symmetric; same-region pairs use the diagonal.
_BASE_RTT: dict[frozenset, float] = {}


def _set_base(a: Region, b: Region, ms: float) -> None:
    _BASE_RTT[frozenset((a, b))] = ms / 1e3


# Intra-region.
_set_base(Region.CALIFORNIA, Region.CALIFORNIA, 6)
_set_base(Region.US_WEST, Region.US_WEST, 8)
_set_base(Region.US_CENTRAL, Region.US_CENTRAL, 15)
_set_base(Region.US_EAST, Region.US_EAST, 12)
_set_base(Region.CANADA, Region.CANADA, 20)
_set_base(Region.EUROPE, Region.EUROPE, 15)
_set_base(Region.MIDDLE_EAST, Region.MIDDLE_EAST, 10)
_set_base(Region.ASIA, Region.ASIA, 40)
_set_base(Region.SOUTH_AMERICA, Region.SOUTH_AMERICA, 15)
# Continental US and neighbours.
_set_base(Region.CALIFORNIA, Region.US_WEST, 20)
_set_base(Region.CALIFORNIA, Region.US_CENTRAL, 45)
_set_base(Region.CALIFORNIA, Region.US_EAST, 75)
_set_base(Region.US_WEST, Region.US_CENTRAL, 40)
_set_base(Region.US_WEST, Region.US_EAST, 70)
_set_base(Region.US_CENTRAL, Region.US_EAST, 35)
_set_base(Region.CANADA, Region.CALIFORNIA, 60)
_set_base(Region.CANADA, Region.US_WEST, 35)
_set_base(Region.CANADA, Region.US_CENTRAL, 40)
_set_base(Region.CANADA, Region.US_EAST, 25)
# Transatlantic / transpacific / long-haul.
_set_base(Region.EUROPE, Region.US_EAST, 100)
_set_base(Region.EUROPE, Region.US_CENTRAL, 120)
_set_base(Region.EUROPE, Region.US_WEST, 150)
_set_base(Region.EUROPE, Region.CALIFORNIA, 160)
_set_base(Region.EUROPE, Region.CANADA, 105)
_set_base(Region.MIDDLE_EAST, Region.EUROPE, 70)
_set_base(Region.MIDDLE_EAST, Region.US_EAST, 140)
_set_base(Region.MIDDLE_EAST, Region.US_CENTRAL, 160)
_set_base(Region.MIDDLE_EAST, Region.US_WEST, 180)
_set_base(Region.MIDDLE_EAST, Region.CALIFORNIA, 190)
_set_base(Region.MIDDLE_EAST, Region.CANADA, 145)
_set_base(Region.MIDDLE_EAST, Region.ASIA, 180)
_set_base(Region.MIDDLE_EAST, Region.SOUTH_AMERICA, 240)
_set_base(Region.ASIA, Region.CALIFORNIA, 150)
_set_base(Region.ASIA, Region.US_WEST, 160)
_set_base(Region.ASIA, Region.US_CENTRAL, 190)
_set_base(Region.ASIA, Region.US_EAST, 220)
_set_base(Region.ASIA, Region.CANADA, 180)
_set_base(Region.ASIA, Region.EUROPE, 250)
_set_base(Region.ASIA, Region.SOUTH_AMERICA, 300)
_set_base(Region.SOUTH_AMERICA, Region.US_EAST, 130)
_set_base(Region.SOUTH_AMERICA, Region.US_CENTRAL, 150)
_set_base(Region.SOUTH_AMERICA, Region.US_WEST, 170)
_set_base(Region.SOUTH_AMERICA, Region.CALIFORNIA, 175)
_set_base(Region.SOUTH_AMERICA, Region.CANADA, 140)
_set_base(Region.SOUTH_AMERICA, Region.EUROPE, 200)


@dataclass(frozen=True)
class PathRtt:
    """RTT model of one directed path: base value + diurnal swing."""

    src: Site
    dst: Site
    base_rtt: float  # seconds
    diurnal_amplitude: float  # fraction of base (0..)
    diurnal_phase: float  # radians

    def rtt_at(self, t_seconds: float) -> float:
        """RTT at absolute time ``t_seconds`` (diurnal period 24 h)."""
        swing = 1.0 + self.diurnal_amplitude * np.sin(
            2.0 * np.pi * t_seconds / 86_400.0 + self.diurnal_phase
        )
        return self.base_rtt * float(swing)


def synthesize_path(
    streams: RngStreams, src: Site, dst: Site, min_rtt: float = 0.002
) -> PathRtt:
    """Derive one directed path's RTT model from its endpoint names.

    Every draw comes from the per-path stream ``rtt/<src>/<dst>``, so a
    path's model depends only on ``(seed, src, dst)`` — a sharded campaign
    can rebuild any single path without materializing the whole matrix,
    and :class:`RttMatrix` gets the exact same values eagerly.
    """
    rng = streams.stream(f"rtt/{src.hostname}/{dst.hostname}")
    base = _BASE_RTT[frozenset((src.region, dst.region))]
    # Per-path lognormal jitter around the region base: local
    # pairs can be a couple of ms, long-haul can exceed 300 ms.
    jitter = float(rng.lognormal(mean=0.0, sigma=0.35))
    rtt = max(min_rtt, base * jitter)
    return PathRtt(
        src=src,
        dst=dst,
        base_rtt=rtt,
        diurnal_amplitude=float(rng.uniform(0.0, 0.15)),
        diurnal_phase=float(rng.uniform(0.0, 2.0 * np.pi)),
    )


class RttMatrix:
    """All 650 directed paths with deterministic, seeded RTTs."""

    def __init__(self, streams: Optional[RngStreams] = None, min_rtt: float = 0.002):
        streams = streams or RngStreams(2006)
        self.min_rtt = float(min_rtt)
        self._paths: dict[tuple[str, str], PathRtt] = {}
        for src in SITES:
            for dst in SITES:
                if src is dst:
                    continue
                self._paths[(src.hostname, dst.hostname)] = synthesize_path(
                    streams, src, dst, min_rtt=self.min_rtt
                )

    def path(self, src: Site | str, dst: Site | str) -> PathRtt:
        """Look up one directed path by endpoint sites or hostnames."""
        s = src.hostname if isinstance(src, Site) else src
        d = dst.hostname if isinstance(dst, Site) else dst
        try:
            return self._paths[(s, d)]
        except KeyError:
            raise KeyError(f"no path {s} -> {d}") from None

    def __len__(self) -> int:
        return len(self._paths)

    def rtt_range(self) -> tuple[float, float]:
        """(min, max) base RTT across the matrix."""
        vals = [p.base_rtt for p in self._paths.values()]
        return min(vals), max(vals)


def build_rtt_matrix(seed: int = 2006) -> RttMatrix:
    """Convenience: seeded 650-path matrix."""
    return RttMatrix(RngStreams(seed))
