"""Fault injection and resilient execution (``repro.faults``).

The paper's PlanetLab leg (§3.1) is an inherently lossy measurement
process: sites go down mid-campaign, probe runs crash, traces arrive
truncated.  This package makes failure a first-class, *injectable*,
*recoverable* condition:

:class:`FaultPlan`
    A seed-reproducible schedule of injected faults — link flaps,
    transient loss spikes, clock skew, probe-process crashes, tracefile
    truncation — armed on the simulator leg (link down/up events) or the
    campaign leg (path outages, mid-run crashes).
:class:`Result` / :class:`RetryPolicy` / :func:`run_with_retry`
    Per-item outcomes, bounded backoff, and the one retry loop behind
    the resilient :func:`repro.experiments.parallel.parallel_map` (and so
    the campaign); the sharded supervisor reuses the policy.
:class:`Checkpoint`
    JSON-lines completion logs so an interrupted campaign resumes exactly
    where it stopped, bit-identical to an uninterrupted run.

``make faults`` selects the tests that hold this package to
degraded-but-valid completion (``pytest -k faults``).
"""

from repro.faults.checkpoint import Checkpoint, CheckpointError
from repro.faults.plan import (
    ClockSkew,
    FaultPlan,
    InjectedFault,
    LinkFlap,
    LossSpike,
    ProbeCrash,
    ProbeCrashError,
    TraceTruncation,
    WorkerHang,
    WorkerKill,
)
from repro.faults.resilient import Result, RetryPolicy, run_with_retry

__all__ = [
    "Checkpoint",
    "CheckpointError",
    "ClockSkew",
    "FaultPlan",
    "InjectedFault",
    "LinkFlap",
    "LossSpike",
    "ProbeCrash",
    "ProbeCrashError",
    "Result",
    "RetryPolicy",
    "TraceTruncation",
    "WorkerHang",
    "WorkerKill",
    "run_with_retry",
]
