"""PlanetLab-equivalent Internet measurement substrate (paper §3.1, Figure 4).

We cannot probe the 2006 Internet; this package substitutes a synthetic
mesh that follows the paper's methodology exactly — 26 sites (Table 1,
:mod:`repro.internet.sites`), 650 directed paths with seeded RTTs and
diurnal variation (:mod:`repro.internet.paths`), per-path two-timescale
bursty loss models (:mod:`repro.internet.pathmodel`), 48 B / 400 B CBR
probe pairs with the similarity validation rule
(:mod:`repro.internet.probe`), and random-pair campaign orchestration
(:mod:`repro.internet.campaign`).

Beyond the paper's scale, :mod:`repro.internet.shards` partitions the
O(sites²) path matrix of an arbitrarily large synthetic mesh into
deterministic shard jobs reduced by a constant-memory streaming
histogram, and :mod:`repro.internet.supervisor` runs those shards under
a crash-tolerant supervising parent (progress heartbeats over the
workers' pipes, retry with backoff, poison-shard quarantine, one
fsynced ledger record per shard, byte-identical resume).
"""

from repro.internet.campaign import Campaign, CampaignResult, Experiment
from repro.internet.pathmodel import PathLossModel, sample_path_loss_model
from repro.internet.paths import PathRtt, RttMatrix, build_rtt_matrix, synthesize_path
from repro.internet.shards import (
    GapHistogram,
    ShardResult,
    ShardSpec,
    SyntheticMesh,
    plan_shards,
    reduce_shards,
    run_shard,
)
from repro.internet.supervisor import (
    CampaignSupervisor,
    ShardedCampaignResult,
    SupervisorConfig,
    run_sharded_campaign,
)
from repro.internet.probe import (
    PROBE_SIZES,
    ProbeConfig,
    ProbeRun,
    run_probe,
    validate_pair,
)
from repro.internet.simpath import LossyLink, build_sim_path
from repro.internet.sites import (
    SITES,
    Region,
    Site,
    n_directed_paths,
    sites,
    sites_by_region,
    synthetic_sites,
)

__all__ = [
    "Campaign",
    "CampaignResult",
    "CampaignSupervisor",
    "Experiment",
    "GapHistogram",
    "LossyLink",
    "PROBE_SIZES",
    "PathLossModel",
    "PathRtt",
    "ProbeConfig",
    "ProbeRun",
    "Region",
    "RttMatrix",
    "SITES",
    "ShardResult",
    "ShardSpec",
    "ShardedCampaignResult",
    "Site",
    "SupervisorConfig",
    "SyntheticMesh",
    "build_rtt_matrix",
    "build_sim_path",
    "n_directed_paths",
    "plan_shards",
    "reduce_shards",
    "run_probe",
    "run_shard",
    "run_sharded_campaign",
    "sample_path_loss_model",
    "sites",
    "sites_by_region",
    "synthesize_path",
    "synthetic_sites",
    "validate_pair",
]
