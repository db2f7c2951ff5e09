"""Deterministic sharding of the path matrix + streaming reduction.

The ROADMAP's planetary-scale campaign (thousands of sites, ~1M directed
paths) cannot hold per-path traces in memory or re-run from scratch after
a crash.  This module provides the two halves that make it feasible:

* **Shard planning** — the O(sites²) directed-path matrix is enumerated
  lexicographically and split into contiguous, self-contained
  :class:`ShardSpec` jobs.  Every random draw inside a shard re-derives
  from ``(seed, path name, path index)``, so a shard's result depends
  only on the campaign seed and its own path range: shards can run in
  any order, on any worker, any number of times, and produce identical
  bytes — and the *same* campaign sharded 1 way or 64 ways reduces to
  the same result.

* **Streaming reduction** — each worker folds its experiments into a
  :class:`GapHistogram`: per-path RTT-normalized loss-gap counts on the
  paper's fixed Figure 4 bin grid (0.02 RTT over [0, 2]), plus exact
  integer counters for the headline "< 0.01 RTT" / "< 1 RTT" fractions
  and an *exact rational* interval sum.  Merging is associative to the
  bit: counts are integers and the running sum is a
  :class:`fractions.Fraction`, so any merge order or tree shape yields
  byte-identical Figure 4 CDFs.  Peak reducer memory is a fixed-size
  bin array — independent of path count.

:mod:`repro.internet.supervisor` runs these shards under a crash-tolerant
parent; this module stays process-free and deterministic.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

import numpy as np

from repro.core.pdf import DEFAULT_BIN, DEFAULT_MAX, IntervalPdf
from repro.internet.analytic import run_shard
from repro.internet.paths import PathRtt, synthesize_path
from repro.internet.sites import Site, synthetic_sites
from repro.sim.rng import RngStreams

__all__ = [
    "SyntheticMesh",
    "GapHistogram",
    "ShardSpec",
    "ShardResult",
    "canonical_fingerprint",
    "plan_shards",
    "run_shard",
    "reduce_shards",
]

#: Campaign clock span the experiments are spread over: the paper's
#: October–December 2006, ~92 days (``Campaign`` uses the same clock).
CAMPAIGN_SPAN_SECONDS = 92 * 86_400.0


def canonical_fingerprint(payload) -> str:
    """SHA-256 of ``payload``'s canonical JSON (sorted keys, no spaces):
    the digest every campaign result type fingerprints with."""
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


class SyntheticMesh:
    """Lazy directed-path provider over ``n_sites`` synthetic sites.

    Holds O(sites) state (the site registry) and derives any of the
    ``n·(n-1)`` directed paths on demand via
    :func:`~repro.internet.paths.synthesize_path` — for 26 sites the
    paths are bit-identical to the eager :class:`~repro.internet.paths.RttMatrix`
    with the same seed.  Path index ``k`` enumerates pairs
    lexicographically: source ``k // (n-1)``, destination skipping the
    diagonal.
    """

    def __init__(self, n_sites: int, seed: int = 2006, min_rtt: float = 0.002):
        if n_sites < 2:
            raise ValueError(f"a mesh needs at least 2 sites, got {n_sites}")
        self.seed = int(seed)
        self.min_rtt = float(min_rtt)
        self.sites: tuple[Site, ...] = synthetic_sites(n_sites)

    @property
    def n_sites(self) -> int:
        return len(self.sites)

    @property
    def n_paths(self) -> int:
        """Directed edges in the complete site graph."""
        n = len(self.sites)
        return n * (n - 1)

    def pair_of(self, index: int) -> tuple[int, int]:
        """Path index -> (source site index, destination site index)."""
        n = len(self.sites)
        if not (0 <= index < self.n_paths):
            raise IndexError(f"path index {index} out of range [0, {self.n_paths})")
        i, r = divmod(index, n - 1)
        j = r if r < i else r + 1
        return i, j

    def path_by_index(self, index: int) -> PathRtt:
        """Derive directed path ``index`` (no matrix is materialized).

        A throwaway stream family per call: stream values depend only on
        ``(seed, stream name)``, and a fresh family keeps the mesh's
        memory constant no matter how many paths a shard walks.
        """
        i, j = self.pair_of(index)
        return synthesize_path(
            RngStreams(self.seed), self.sites[i], self.sites[j],
            min_rtt=self.min_rtt,
        )


class GapHistogram:
    """Constant-memory, exactly-associative reducer of loss-gap intervals.

    State is a fixed ``int64`` bin-count array on the Figure 4 grid, the
    total interval count ``n`` (including beyond-grid overflow, matching
    :func:`repro.core.pdf.interval_pdf`), strict-below counters for the
    paper's 0.01 RTT / 1 RTT headline fractions, and the interval sum as
    an exact :class:`~fractions.Fraction`.  Because every field is an
    integer or an exact rational, ``merge`` is associative and
    commutative *to the bit*: any fold/merge order over the same leaves
    yields identical state, which is what makes killed-and-resumed
    campaigns byte-identical to uninterrupted ones.
    """

    #: Strict-below thresholds tracked exactly (the paper's headlines).
    BELOW_THRESHOLDS = (0.01, 1.0)

    def __init__(self, bin_size: float = DEFAULT_BIN, max_rtt: float = DEFAULT_MAX):
        if bin_size <= 0 or max_rtt <= 0:
            raise ValueError("bin_size and max_rtt must be positive")
        nbins = int(round(max_rtt / bin_size))
        self.bin_size = float(bin_size)
        self.nbins = nbins
        self.counts = np.zeros(nbins, dtype=np.int64)
        self.n = 0
        self.n_below = [0] * len(self.BELOW_THRESHOLDS)
        self._exact_sum = Fraction(0)

    # -- folding / merging ----------------------------------------------
    @property
    def edges(self) -> np.ndarray:
        """Bin edges, constructed exactly like :func:`interval_pdf`."""
        return np.linspace(0.0, self.nbins * self.bin_size, self.nbins + 1)

    def fold(self, intervals_rtt: np.ndarray) -> "GapHistogram":
        """Fold one leaf (a probe run's RTT-normalized intervals) in.

        The leaf's contribution to the exact sum is ``math.fsum`` of the
        array — the correctly-rounded true sum, so the leaf value depends
        only on the multiset of intervals, never on array layout.
        """
        x = np.asarray(intervals_rtt, dtype=np.float64)
        if x.ndim != 1:
            raise ValueError(f"intervals must be 1-D, got shape {x.shape}")
        if len(x) == 0:
            return self
        if np.any(x < 0):
            raise ValueError("negative intervals")
        counts, _ = np.histogram(x, bins=self.edges)
        self.counts += counts
        self.n += len(x)
        for i, thr in enumerate(self.BELOW_THRESHOLDS):
            self.n_below[i] += int(np.count_nonzero(x < thr))
        self._exact_sum += Fraction(math.fsum(x.tolist()))
        return self

    def merge(self, other: "GapHistogram") -> "GapHistogram":
        """Absorb another histogram (must share the bin grid)."""
        if (other.bin_size, other.nbins) != (self.bin_size, self.nbins):
            raise ValueError(
                f"bin grids differ: ({self.bin_size}, {self.nbins}) vs "
                f"({other.bin_size}, {other.nbins})"
            )
        self.counts += other.counts
        self.n += other.n
        for i in range(len(self.n_below)):
            self.n_below[i] += other.n_below[i]
        self._exact_sum += other._exact_sum
        return self

    # -- statistics ------------------------------------------------------
    @property
    def mean_interval(self) -> float:
        """Exactly-rounded mean interval (RTT units); nan when empty."""
        if self.n == 0:
            return float("nan")
        return float(self._exact_sum / self.n)

    def fraction_within(self, threshold_rtt: float) -> float:
        """Fraction of intervals strictly below a tracked threshold.

        Matches :func:`repro.core.burstiness.fraction_within` on the raw
        pooled intervals (strict ``<``), but from O(1) counters — only
        the thresholds in :attr:`BELOW_THRESHOLDS` are available.
        """
        try:
            i = self.BELOW_THRESHOLDS.index(threshold_rtt)
        except ValueError:
            raise ValueError(
                f"threshold {threshold_rtt} not tracked; available: "
                f"{self.BELOW_THRESHOLDS}"
            ) from None
        if self.n == 0:
            return float("nan")
        return self.n_below[i] / self.n

    def to_interval_pdf(self) -> IntervalPdf:
        """The Figure 4 :class:`IntervalPdf` — density computed from the
        integer counts exactly as the serial pooled-intervals path does,
        so the arrays are bit-identical to
        ``interval_pdf(np.concatenate(all_leaves))``."""
        if self.n > 0:
            density = self.counts / (self.n * self.bin_size)
        else:
            density = self.counts.astype(np.float64)
        return IntervalPdf(
            edges=self.edges,
            density=density,
            n=self.n,
            mean_interval=self.mean_interval,
        )

    # -- serialization ---------------------------------------------------
    def to_record(self) -> dict:
        """JSON-able state; the exact sum round-trips as numerator and
        denominator strings (arbitrary-precision, lossless)."""
        return {
            "bin_size": self.bin_size,
            "nbins": self.nbins,
            "counts": self.counts.tolist(),
            "n": self.n,
            "n_below": list(self.n_below),
            "sum_num": str(self._exact_sum.numerator),
            "sum_den": str(self._exact_sum.denominator),
        }

    @classmethod
    def from_record(cls, record: dict) -> "GapHistogram":
        h = cls(bin_size=float(record["bin_size"]),
                max_rtt=float(record["bin_size"]) * int(record["nbins"]))
        counts = np.asarray(record["counts"], dtype=np.int64)
        if len(counts) != h.nbins:
            raise ValueError(
                f"count array has {len(counts)} bins, grid has {h.nbins}"
            )
        h.counts = counts
        h.n = int(record["n"])
        h.n_below = [int(v) for v in record["n_below"]]
        h._exact_sum = Fraction(int(record["sum_num"]), int(record["sum_den"]))
        return h

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<GapHistogram n={self.n} bins={self.nbins}x{self.bin_size} "
            f"mean={self.mean_interval:.4g}>"
        )


@dataclass(frozen=True)
class ShardSpec:
    """One self-contained shard job: path indices ``[start, stop)`` of the
    ``(seed, n_sites)`` mesh.  Everything a worker needs travels in the
    spec; randomness re-derives from the seed and each path's own names,
    so the spec is the complete description of the work."""

    shard_id: int
    start: int
    stop: int
    seed: int
    n_sites: int
    n_shards: int

    def __post_init__(self):
        if self.shard_id < 0 or self.start < 0 or self.stop <= self.start:
            raise ValueError(
                f"bad shard range: id={self.shard_id} [{self.start}, {self.stop})"
            )

    @property
    def n_paths(self) -> int:
        return self.stop - self.start

    def to_record(self) -> dict:
        return {
            "shard_id": self.shard_id, "start": self.start, "stop": self.stop,
            "seed": self.seed, "n_sites": self.n_sites, "n_shards": self.n_shards,
        }

    @classmethod
    def from_record(cls, record: dict) -> "ShardSpec":
        return cls(**{k: int(record[k]) for k in (
            "shard_id", "start", "stop", "seed", "n_sites", "n_shards")})


def plan_shards(
    n_sites: int,
    n_shards: int,
    seed: int = 2006,
    n_paths: Optional[int] = None,
) -> list[ShardSpec]:
    """Deterministically partition the directed-path matrix into shards.

    ``n_paths`` caps the campaign to the first ``n_paths`` path indices
    (default: the full ``n·(n-1)`` matrix).  Shards are contiguous and
    balanced: the first ``total % n_shards`` shards carry one extra path.
    Pure arithmetic — the same inputs always produce the same plan, which
    is what lets a resumed supervisor re-derive the plan instead of
    trusting state on disk.
    """
    mesh = SyntheticMesh(n_sites, seed=seed)
    total = mesh.n_paths if n_paths is None else int(n_paths)
    if not (1 <= total <= mesh.n_paths):
        raise ValueError(
            f"n_paths must be in [1, {mesh.n_paths}] for {n_sites} sites, "
            f"got {total}"
        )
    if not (1 <= n_shards <= total):
        raise ValueError(
            f"n_shards must be in [1, {total}] for {total} paths, got {n_shards}"
        )
    q, r = divmod(total, n_shards)
    specs = []
    start = 0
    for sid in range(n_shards):
        size = q + (1 if sid < r else 0)
        specs.append(ShardSpec(
            shard_id=sid, start=start, stop=start + size,
            seed=int(seed), n_sites=int(n_sites), n_shards=int(n_shards),
        ))
        start += size
    assert start == total
    return specs


@dataclass
class ShardResult:
    """One completed shard: streaming histogram plus exact counters.

    ``injected`` counts faults the worker realized (relayed parent-side
    like the legacy campaign's records).  ``fingerprint`` covers the
    measurement content only — never attempts or timing — so a retried
    or resumed shard fingerprints identically to a first-try run.
    """

    spec: ShardSpec
    histogram: GapHistogram
    n_experiments: int
    n_valid: int
    n_rejected: int
    injected: dict

    def to_record(self) -> dict:
        return {
            "spec": self.spec.to_record(),
            "histogram": self.histogram.to_record(),
            "n_experiments": self.n_experiments,
            "n_valid": self.n_valid,
            "n_rejected": self.n_rejected,
            "injected": {k: int(v) for k, v in sorted(self.injected.items())},
        }

    @classmethod
    def from_record(cls, record: dict) -> "ShardResult":
        return cls(
            spec=ShardSpec.from_record(record["spec"]),
            histogram=GapHistogram.from_record(record["histogram"]),
            n_experiments=int(record["n_experiments"]),
            n_valid=int(record["n_valid"]),
            n_rejected=int(record["n_rejected"]),
            injected=dict(record.get("injected", {})),
        )

    def fingerprint(self) -> str:
        """SHA-256 over the canonical result record (content, not provenance)."""
        payload = self.to_record()
        payload.pop("injected")  # injections are provenance, not measurement
        return canonical_fingerprint(payload)


def reduce_shards(results: list[ShardResult]) -> tuple[GapHistogram, dict]:
    """Merge completed shards (canonically in shard-id order, though any
    order yields the same bits) into the campaign histogram + counters."""
    merged = GapHistogram()
    counters = {"n_experiments": 0, "n_valid": 0, "n_rejected": 0}
    for res in sorted(results, key=lambda r: r.spec.shard_id):
        merged.merge(res.histogram)
        counters["n_experiments"] += res.n_experiments
        counters["n_valid"] += res.n_valid
        counters["n_rejected"] += res.n_rejected
    return merged, counters
