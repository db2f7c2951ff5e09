"""PlanetLab measurement sites (paper Table 1).

The paper's Internet measurements span 26 PlanetLab sites: 6 in
California, 11 elsewhere in the United States, 3 in Canada, and the rest
in Asia, Europe, and South America — 650 directed paths in the complete
graph.  The registry below reproduces Table 1 verbatim and adds a coarse
geographic region used by the synthetic RTT model.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

__all__ = [
    "Region",
    "Site",
    "SITES",
    "sites",
    "n_directed_paths",
    "synthetic_sites",
]


class Region(enum.Enum):
    """Coarse geography for RTT synthesis."""

    CALIFORNIA = "california"
    US_WEST = "us-west"
    US_CENTRAL = "us-central"
    US_EAST = "us-east"
    CANADA = "canada"
    EUROPE = "europe"
    MIDDLE_EAST = "middle-east"
    ASIA = "asia"
    SOUTH_AMERICA = "south-america"


@dataclass(frozen=True)
class Site:
    """One PlanetLab node."""

    hostname: str
    location: str
    region: Region


#: Table 1, in paper order.
SITES: tuple[Site, ...] = (
    Site("planetlab2.cs.ucla.edu", "Los Angeles, CA", Region.CALIFORNIA),
    Site("planetlab2.postel.org", "Marina Del Rey, CA", Region.CALIFORNIA),
    Site("planet2.cs.ucsb.edu", "Santa Barbara, CA", Region.CALIFORNIA),
    Site("planetlab11.millennium.berkeley.edu", "Berkeley, CA", Region.CALIFORNIA),
    Site("planetlab1.nycm.internet2.planet-lab.org", "Marina del Rey, CA", Region.CALIFORNIA),
    Site("planetlab2.kscy.internet2.planet-lab.org", "Marina del Rey, CA", Region.CALIFORNIA),
    Site("planetlab3.cs.uoregon.edu", "Eugene, OR", Region.US_WEST),
    Site("planetlab1.cs.ubc.ca", "Vancouver, Canada", Region.CANADA),
    Site("kupl1.ittc.ku.edu", "Lawrence, KS", Region.US_CENTRAL),
    Site("planetlab2.cs.uiuc.edu", "Urbana, IL", Region.US_CENTRAL),
    Site("planetlab2.tamu.edu", "College Station, TX", Region.US_CENTRAL),
    Site("planet.cc.gt.atl.ga.us", "Atlanta, GA", Region.US_EAST),
    Site("planetlab2.uc.edu", "Cincinnati, Ohio", Region.US_EAST),
    Site("planetlab-2.eecs.cwru.edu", "Cleveland, OH", Region.US_EAST),
    Site("planetlab1.cs.duke.edu", "Durham, NC", Region.US_EAST),
    Site("planetlab-10.cs.princeton.edu", "Princeton, NJ", Region.US_EAST),
    Site("planetlab1.cs.cornell.edu", "Ithaca, NY", Region.US_EAST),
    Site("planetlab2.isi.jhu.edu", "Baltimore, MD", Region.US_EAST),
    Site("crt3.planetlab.umontreal.ca", "Montreal, Canada", Region.CANADA),
    Site("planet2.toronto.canet4.nodes.planet-lab.org", "Toronto, Canada", Region.CANADA),
    Site("planet1.cs.huji.ac.il", "Jerusalem, Israel", Region.MIDDLE_EAST),
    Site("thu1.6planetlab.edu.cn", "Beijing, China", Region.ASIA),
    Site("lzu1.6planetlab.edu.cn", "Lanzhou, China", Region.ASIA),
    Site("planetlab2.iis.sinica.edu.tw", "Taipei, China", Region.ASIA),
    Site("planetlab1.cesnet.cz", "Czech", Region.EUROPE),
    Site("planetlab1.larc.usp.br", "Brazil", Region.SOUTH_AMERICA),
)


def sites() -> tuple[Site, ...]:
    """All 26 sites, paper order."""
    return SITES


def n_directed_paths() -> int:
    """Directed edges in the complete site graph: 26 * 25 = 650."""
    n = len(SITES)
    return n * (n - 1)


#: Region mix for synthetic sites beyond Table 1, in paper proportion
#: (California-heavy US, then international) — cycled deterministically.
_SYNTH_REGION_CYCLE: tuple[Region, ...] = (
    Region.CALIFORNIA,
    Region.US_EAST,
    Region.EUROPE,
    Region.US_CENTRAL,
    Region.ASIA,
    Region.US_EAST,
    Region.CANADA,
    Region.US_WEST,
    Region.CALIFORNIA,
    Region.SOUTH_AMERICA,
    Region.US_EAST,
    Region.MIDDLE_EAST,
    Region.US_CENTRAL,
)


def synthetic_sites(n: int) -> tuple[Site, ...]:
    """A deterministic registry of ``n`` measurement sites.

    The first 26 are Table 1 verbatim; the rest are synthetic hosts
    (``synth-0026.us-east.repro.net``, ...) with regions assigned from a
    fixed cycle so every region keeps growing in roughly the paper's mix.
    Purely positional — no RNG — so site ``k`` is identical regardless of
    how many sites the campaign asks for, and a shard worker can rebuild
    the registry from ``n`` alone.  This is what lets the 26-site paper
    mesh scale to the ~1M directed paths the ROADMAP asks for
    (``n=1000`` -> 999 000 paths) without a hand-written registry.
    """
    if n < 1:
        raise ValueError(f"need at least one site, got {n}")
    if n <= len(SITES):
        return SITES[:n]
    extra = []
    for k in range(len(SITES), n):
        region = _SYNTH_REGION_CYCLE[k % len(_SYNTH_REGION_CYCLE)]
        extra.append(
            Site(
                hostname=f"synth-{k:04d}.{region.value}.repro.net",
                location=f"Synthetic site {k}",
                region=region,
            )
        )
    return SITES + tuple(extra)
