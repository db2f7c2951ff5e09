"""Tests for the site registry (Table 1) and RTT matrix."""

import numpy as np
import pytest

from repro.internet import (
    RttMatrix,
    Region,
    SITES,
    build_rtt_matrix,
    n_directed_paths,
    sites,
)
from repro.sim.rng import RngStreams
from tests.internet import matrix_paths


def _sites_in(region):
    return [s for s in SITES if s.region == region]


class TestSites:
    def test_26_sites(self):
        assert len(SITES) == 26
        assert len(sites()) == 26

    def test_650_directed_paths(self):
        assert n_directed_paths() == 650

    def test_regional_composition_matches_paper(self):
        # "6 are in California, 11 are in other parts of United States,
        #  3 are in Canada and the rest are in Asia, Europe and Southern
        #  America" (plus Israel).
        ca = _sites_in(Region.CALIFORNIA)
        assert len(ca) == 6
        other_us = (
            _sites_in(Region.US_WEST)
            + _sites_in(Region.US_CENTRAL)
            + _sites_in(Region.US_EAST)
        )
        assert len(other_us) == 11
        assert len(_sites_in(Region.CANADA)) == 3
        assert len(_sites_in(Region.ASIA)) == 3
        assert len(_sites_in(Region.EUROPE)) == 1
        assert len(_sites_in(Region.SOUTH_AMERICA)) == 1
        assert len(_sites_in(Region.MIDDLE_EAST)) == 1

    def test_hostnames_unique(self):
        names = [s.hostname for s in SITES]
        assert len(set(names)) == 26

    def test_known_entries(self):
        names = {s.hostname for s in SITES}
        assert "planetlab2.cs.ucla.edu" in names
        assert "planetlab1.larc.usp.br" in names


class TestRttMatrix:
    def test_all_650_paths_present(self):
        m = build_rtt_matrix()
        assert len(m) == 650
        assert len(matrix_paths(m)) == 650

    def test_rtt_range_spans_paper_claim(self):
        # "from 2ms to more than 200ms" / highest "more than 300ms".
        m = build_rtt_matrix()
        lo, hi = m.rtt_range()
        assert lo < 0.020
        assert hi > 0.200

    def test_deterministic_given_seed(self):
        a = build_rtt_matrix(seed=1)
        b = build_rtt_matrix(seed=1)
        pa = a.path(SITES[0], SITES[-1])
        pb = b.path(SITES[0], SITES[-1])
        assert pa.base_rtt == pb.base_rtt

    def test_different_seed_differs(self):
        a = build_rtt_matrix(seed=1).path(SITES[0], SITES[-1]).base_rtt
        b = build_rtt_matrix(seed=2).path(SITES[0], SITES[-1]).base_rtt
        assert a != b

    def test_lookup_by_hostname(self):
        m = build_rtt_matrix()
        p = m.path("planetlab2.cs.ucla.edu", "planetlab1.cesnet.cz")
        assert p.base_rtt > 0.05  # CA <-> Europe is long-haul

    def test_missing_path_raises(self):
        m = build_rtt_matrix()
        with pytest.raises(KeyError):
            m.path("nope.example.com", SITES[0].hostname)
        with pytest.raises(KeyError):
            m.path(SITES[0].hostname, SITES[0].hostname)

    def test_regional_ordering(self):
        """Cross-continental paths are slower than intra-California ones."""
        m = build_rtt_matrix()
        ca = _sites_in(Region.CALIFORNIA)
        asia = _sites_in(Region.ASIA)
        intra = [m.path(a, b).base_rtt for a in ca for b in ca if a is not b]
        inter = [m.path(a, b).base_rtt for a in ca for b in asia]
        assert np.mean(inter) > 5 * np.mean(intra)

    def test_diurnal_variation_bounded_and_periodic(self):
        m = build_rtt_matrix()
        p = m.path(SITES[0], SITES[1])
        t = np.linspace(0, 86_400, 1000)
        rtts = np.array([p.rtt_at(ti) for ti in t])
        assert rtts.min() >= p.base_rtt * (1 - 0.15 - 1e-9)
        assert rtts.max() <= p.base_rtt * (1 + 0.15 + 1e-9)
        assert p.rtt_at(0.0) == pytest.approx(p.rtt_at(86_400.0))

    def test_min_rtt_floor(self):
        m = RttMatrix(RngStreams(0), min_rtt=0.002)
        lo, _ = m.rtt_range()
        assert lo >= 0.002
