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
:class:`Result` / :class:`RetryPolicy`
    Per-item outcomes and bounded backoff, applied by the one process
    runner (:func:`repro.experiments.parallel.fan_out`) behind the
    resilient ``parallel_map`` and the sharded campaign supervisor.
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
from repro.faults.resilient import Result, RetryPolicy

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
]
