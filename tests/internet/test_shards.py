"""Tests for deterministic shard planning + the streaming gap reducer.

The load-bearing invariants: a campaign sharded any way reduces to the
same bits as an unsharded run, :class:`GapHistogram` merges are
associative and commutative *to the bit* for any merge order or tree
shape, its Figure 4 output is bit-identical to the serial pooled
``interval_pdf`` path, and reducer state stays constant-size no matter
how many paths are folded through it.
"""

import random
import tracemalloc

import numpy as np
import pytest

from repro.core import fraction_within
from repro.core.pdf import interval_pdf
from repro.internet import (
    GapHistogram,
    ProbeConfig,
    ShardResult,
    SyntheticMesh,
    plan_shards,
    reduce_shards,
    run_shard,
)
from repro.internet.paths import RttMatrix
from repro.internet.sites import SITES
from repro.sim.rng import RngStreams

PAPER_SITES = 26  # the paper's PlanetLab deployment: 26 sites, 650 paths


def hist_state(h: GapHistogram) -> tuple:
    """Complete reducer state as a comparable tuple (bit-level equality)."""
    return (
        h.counts.tobytes(),
        h.n,
        tuple(h.n_below),
        h._exact_sum,
        h.bin_size,
        h.nbins,
    )


class TestPlanShards:
    def test_partition_covers_every_path_exactly_once(self):
        specs = plan_shards(10, 7)
        total = 10 * 9
        assert specs[0].start == 0
        assert specs[-1].stop == total
        for prev, cur in zip(specs, specs[1:]):
            assert cur.start == prev.stop  # contiguous, no gap, no overlap
        assert sum(s.n_paths for s in specs) == total

    def test_balanced_within_one_path(self):
        for n_shards in (1, 3, 8, 13):
            specs = plan_shards(PAPER_SITES, n_shards)
            sizes = [s.n_paths for s in specs]
            assert max(sizes) - min(sizes) <= 1
            # Larger shards come first (deterministic remainder placement).
            assert sizes == sorted(sizes, reverse=True)

    def test_deterministic(self):
        assert plan_shards(12, 5, seed=7) == plan_shards(12, 5, seed=7)

    def test_n_paths_cap(self):
        specs = plan_shards(50, 8, n_paths=100)
        assert sum(s.n_paths for s in specs) == 100
        assert specs[-1].stop == 100

    def test_rejects_bad_shapes(self):
        with pytest.raises(ValueError):
            plan_shards(10, 0)
        with pytest.raises(ValueError):
            plan_shards(10, 91)  # more shards than the 90 paths
        with pytest.raises(ValueError):
            plan_shards(10, 2, n_paths=0)
        with pytest.raises(ValueError):
            plan_shards(10, 2, n_paths=91)

    def test_spec_roundtrips_through_record(self):
        for spec in plan_shards(9, 4):
            assert type(spec).from_record(spec.to_record()) == spec


class TestSyntheticMesh:
    def test_pair_enumeration_is_a_bijection(self):
        mesh = SyntheticMesh(7)
        pairs = [mesh.pair_of(k) for k in range(mesh.n_paths)]
        assert len(set(pairs)) == mesh.n_paths == 42
        assert all(i != j for i, j in pairs)

    def test_out_of_range_raises(self):
        mesh = SyntheticMesh(5)
        with pytest.raises(IndexError):
            mesh.pair_of(mesh.n_paths)

    def test_matches_eager_matrix_for_paper_sites(self):
        """Lazily-derived paths are bit-identical to the eager 650-path
        RttMatrix: same sites, same per-name stream derivation."""
        mesh = SyntheticMesh(PAPER_SITES, seed=2006)
        matrix = RttMatrix(RngStreams(2006))
        assert mesh.n_paths == len(matrix) == 650
        assert [s.hostname for s in mesh.sites] == [s.hostname for s in SITES]
        for k in range(0, mesh.n_paths, 37):  # stride keeps the test fast
            p = mesh.path_by_index(k)
            q = matrix.path(p.src, p.dst)
            assert (p.base_rtt, p.diurnal_amplitude, p.diurnal_phase) == (
                q.base_rtt, q.diurnal_amplitude, q.diurnal_phase
            )

    def test_scales_to_thousands_of_sites(self):
        """A million-path mesh costs O(sites) memory and O(1) per path:
        nothing is materialized until a shard asks for its indices."""
        mesh = SyntheticMesh(1500)
        assert mesh.n_paths == 1500 * 1499  # ~2.25M directed paths
        path = mesh.path_by_index(mesh.n_paths - 1)
        assert path.base_rtt > 0
        specs = plan_shards(1500, 64)
        assert sum(s.n_paths for s in specs) == mesh.n_paths

    def test_rederivation_is_stable(self):
        mesh = SyntheticMesh(6, seed=11)
        a = mesh.path_by_index(17)
        b = mesh.path_by_index(17)
        assert (a.base_rtt, a.diurnal_phase) == (b.base_rtt, b.diurnal_phase)


def random_leaves(n_leaves: int, rng_seed: int = 0) -> list[np.ndarray]:
    """Synthetic per-probe-run interval arrays, including beyond-grid
    overflow (> 2 RTT) and empties."""
    rng = np.random.default_rng(rng_seed)
    leaves = []
    for _ in range(n_leaves):
        k = int(rng.integers(0, 40))
        leaves.append(rng.exponential(0.4, size=k))
    return leaves


class TestGapHistogramAssociativity:
    def test_matches_serial_pooled_interval_pdf(self):
        """Streaming fold == the serial path: density/edges bit-identical
        to ``interval_pdf`` over the concatenated pool."""
        leaves = random_leaves(80)
        h = GapHistogram()
        for leaf in leaves:
            h.fold(leaf)
        pooled = np.concatenate(leaves)
        serial = interval_pdf(pooled)
        streamed = h.to_interval_pdf()
        np.testing.assert_array_equal(streamed.edges, serial.edges)
        np.testing.assert_array_equal(streamed.density, serial.density)
        assert streamed.n == serial.n == len(pooled)
        assert h.fraction_within(0.01) == fraction_within(pooled, 0.01)
        assert h.fraction_within(1.0) == fraction_within(pooled, 1.0)

    def test_merge_any_order_bit_identical(self):
        leaves = random_leaves(60, rng_seed=3)
        def folded(subset):
            h = GapHistogram()
            for leaf in subset:
                h.fold(leaf)
            return h

        serial = folded(leaves)
        for order_seed in range(5):
            order = list(range(len(leaves)))
            random.Random(order_seed).shuffle(order)
            # Partition the shuffled leaves into uneven chunks, fold each,
            # then merge the partials in that order.
            chunks = [order[i::7] for i in range(7)]
            merged = GapHistogram()
            for chunk in chunks:
                merged.merge(folded([leaves[i] for i in chunk]))
            assert hist_state(merged) == hist_state(serial)

    def test_merge_random_tree_shapes_bit_identical(self):
        leaves = random_leaves(33, rng_seed=5)
        partials = []
        for leaf in leaves:
            h = GapHistogram()
            h.fold(leaf)
            partials.append(h)
        serial = GapHistogram()
        for leaf in leaves:
            serial.fold(leaf)

        for tree_seed in range(4):
            rng = random.Random(tree_seed)
            nodes = [GapHistogram().merge(p) for p in partials]
            while len(nodes) > 1:  # collapse random pairs: a random tree
                i = rng.randrange(len(nodes) - 1)
                a = nodes.pop(i + 1)
                nodes[i] = nodes[i].merge(a)
            assert hist_state(nodes[0]) == hist_state(serial)

    def test_merge_rejects_mismatched_grids(self):
        with pytest.raises(ValueError):
            GapHistogram().merge(GapHistogram(bin_size=0.05))

    def test_record_roundtrip_is_lossless(self):
        h = GapHistogram()
        for leaf in random_leaves(20, rng_seed=9):
            h.fold(leaf)
        back = GapHistogram.from_record(h.to_record())
        assert hist_state(back) == hist_state(h)


class TestShardingInvariance:
    """Re-sharding the same campaign cannot change a single bit."""

    CFG = ProbeConfig(duration=10.0)

    def run_sharded(self, n_shards, n_paths=650):
        results = [
            run_shard(s, probe_config=self.CFG)
            for s in plan_shards(PAPER_SITES, n_shards, n_paths=n_paths)
        ]
        return reduce_shards(results), results

    def test_paper_scale_shardings_reduce_identically(self):
        """650 paths (the paper's full matrix) sharded 1, 5, and 13 ways:
        identical histogram bits and identical Figure 4 arrays."""
        (h1, c1), _ = self.run_sharded(1)
        (h5, c5), _ = self.run_sharded(5)
        (h13, c13), shards13 = self.run_sharded(13)
        assert h1.n > 100  # the campaign actually produced gap content
        assert hist_state(h1) == hist_state(h5) == hist_state(h13)
        assert c1 == c5 == c13
        pdf1 = h1.to_interval_pdf()
        pdf13 = h13.to_interval_pdf()
        np.testing.assert_array_equal(pdf1.density, pdf13.density)

        # Merge order over real shard results is free too.
        shuffled = list(shards13)
        random.Random(1).shuffle(shuffled)
        merged, counters = reduce_shards(shuffled)
        assert hist_state(merged) == hist_state(h1)
        assert counters == c1

    def test_shard_rerun_fingerprints_identically(self):
        spec = plan_shards(PAPER_SITES, 13)[4]
        a = run_shard(spec, probe_config=self.CFG)
        b = run_shard(spec, probe_config=self.CFG)
        assert a.fingerprint() == b.fingerprint()
        roundtrip = ShardResult.from_record(a.to_record())
        assert roundtrip.fingerprint() == a.fingerprint()

    def test_fingerprint_ignores_injection_provenance(self):
        spec = plan_shards(8, 2, n_paths=10)[0]
        a = run_shard(spec, probe_config=self.CFG)
        b = run_shard(spec, probe_config=self.CFG)
        b.injected = {"worker_sigkill": 3}
        assert a.fingerprint() == b.fingerprint()


def _state_nbytes(h):
    """A reducer's state footprint in bytes: the bin array, the counters
    and the exact rational's digits."""
    exact_bits = (h._exact_sum.numerator.bit_length()
                  + h._exact_sum.denominator.bit_length())
    return int(h.counts.nbytes) + 8 * (2 + len(h.n_below)) + exact_bits // 8


class TestConstantMemory:
    def test_reducer_state_independent_of_leaf_count(self):
        """Reducer state after 10k folds is the same size as after 100:
        a fixed bin array + O(1) counters, never per-leaf storage."""
        small = GapHistogram()
        for leaf in random_leaves(100, rng_seed=2):
            small.fold(leaf)
        big = GapHistogram()
        for leaf in random_leaves(10_000, rng_seed=2):
            big.fold(leaf)
        assert big.n > 50 * small.n
        # The only growable field is the exact rational's digit count,
        # which grows like log(sum) — bounded here by a small constant.
        assert _state_nbytes(big) <= _state_nbytes(small) + 512

    def test_run_shard_peak_memory_independent_of_path_count(self):
        """A 10k-path shard peaks at the same memory as a 500-path shard:
        the mesh is lazy and the reducer streams (nothing per-path is
        retained)."""
        cfg = ProbeConfig(duration=1.0)
        mesh = SyntheticMesh(120)  # 14,280 possible paths
        assert mesh.n_paths >= 10_000

        def peak_for(n_paths):
            spec = plan_shards(120, 1, n_paths=n_paths)[0]
            tracemalloc.start()
            run_shard(spec, probe_config=cfg)
            _, peak = tracemalloc.get_traced_memory()
            tracemalloc.stop()
            return peak

        peak_small = peak_for(500)
        peak_big = peak_for(10_000)
        # 20x the paths must not mean more memory; allow 50% jitter for
        # allocator noise, far below any O(paths) signature.
        assert peak_big < 1.5 * peak_small
