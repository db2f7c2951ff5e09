"""Fault injection and resilient execution (``repro.faults``).

The paper's PlanetLab leg (§3.1) is an inherently lossy measurement
process: sites go down mid-campaign, probe runs crash, traces arrive
truncated.  This package makes failure a first-class, *injectable*,
*recoverable* condition:

:class:`FaultPlan`
    A seed-reproducible schedule of injected faults — link flaps,
    transient loss spikes, probe-process crashes, worker kills and hangs —
    armed on the simulator leg (link down/up events) or the campaign leg
    (path outages, mid-run crashes, dead or wedged shard workers).
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
    FaultPlan,
    InjectedFault,
    LinkFlap,
    LossSpike,
    ProbeCrash,
    ProbeCrashError,
    WorkerHang,
    WorkerKill,
)
from repro.faults.resilient import Result, RetryPolicy

__all__ = [
    "Checkpoint",
    "CheckpointError",
    "FaultPlan",
    "InjectedFault",
    "LinkFlap",
    "LossSpike",
    "ProbeCrash",
    "ProbeCrashError",
    "Result",
    "RetryPolicy",
    "WorkerHang",
    "WorkerKill",
]
