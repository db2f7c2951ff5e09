"""Measurement campaign orchestration (paper §3.1, Internet leg).

"From October 2006 to December 2006, we periodically initiate constant bit
rate (CBR) flows between two randomly picked sites": the campaign picks
random directed site pairs, runs the 48 B / 400 B probe pair against the
path's loss model (same congestion episodes for both runs), applies the
validation rule, and pools RTT-normalized loss intervals across validated
experiments — the dataset behind Figure 4.

The campaign is built for the *lossy reality* of such a measurement
process.  Each experiment is a self-contained job whose randomness is
re-derived from ``(seed, path name, index)``, so:

* experiments fan out over worker processes
  (:func:`repro.experiments.parallel.parallel_map`) with results
  bit-identical to a serial run;
* failures (real or injected by a :class:`repro.faults.FaultPlan`) are
  retried under the default :class:`repro.faults.RetryPolicy` — in the
  process that ran the first attempt — or recorded as
  :class:`ExperimentFailure` and *skipped*; the surviving cells still
  form a valid, explicitly degraded dataset;
* completed experiments stream into a JSON-lines
  :class:`~repro.faults.Checkpoint`, so an interrupted campaign resumes
  exactly where it stopped and finishes bit-identical to an uninterrupted
  run with the same seed.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional, Union

import numpy as np

from repro.experiments.parallel import parallel_map
from repro.faults.checkpoint import Checkpoint
from repro.faults.plan import FaultPlan
from repro.faults.resilient import Result
from repro.internet.analytic import injected_since, run_experiment_fast
from repro.internet.paths import PathRtt, RttMatrix
from repro.internet.probe import ProbeConfig, ProbeRun
from repro.internet.shards import CAMPAIGN_SPAN_SECONDS, canonical_fingerprint
from repro.internet.sites import SITES
from repro.sim.rng import RngStreams

__all__ = ["Experiment", "ExperimentFailure", "CampaignResult", "Campaign"]


@dataclass
class Experiment:
    """One validated (or rejected) path measurement."""

    path: PathRtt
    small: ProbeRun
    large: ProbeRun
    valid: bool
    #: Campaign-clock start time in seconds (paper: experiments spread
    #: periodically over October-December 2006).  The path's diurnal RTT at
    #: this time is what the runs were normalized with.
    started_at: float = 0.0

    def intervals_rtt(self) -> np.ndarray:
        """Pooled RTT-normalized intervals of both runs (validated use)."""
        return np.concatenate((self.small.intervals_rtt(), self.large.intervals_rtt()))


@dataclass(frozen=True)
class ExperimentFailure:
    """One experiment that never produced data (crashed, then skipped)."""

    index: int
    error: str
    attempts: int = 1


@dataclass
class CampaignResult:
    """Aggregated campaign output.

    ``experiments`` holds every cell that produced data; cells that failed
    permanently are accounted in ``failures`` — graceful degradation, not
    silent truncation.  ``meta`` carries provenance (fault plan, retries,
    resume counts) and is deliberately excluded from :meth:`fingerprint`.
    """

    experiments: list[Experiment] = field(default_factory=list)
    failures: list[ExperimentFailure] = field(default_factory=list)
    meta: dict = field(default_factory=dict)

    @property
    def n_valid(self) -> int:
        """Experiments that passed the 48B/400B validation."""
        return sum(1 for e in self.experiments if e.valid)

    @property
    def n_rejected(self) -> int:
        """Experiments discarded by the validation rule."""
        return len(self.experiments) - self.n_valid

    @property
    def degraded(self) -> bool:
        """True when any experiment failed and was excluded."""
        return bool(self.failures)

    def all_intervals_rtt(self) -> np.ndarray:
        """RTT-normalized loss intervals pooled over validated experiments
        (the Figure 4 dataset)."""
        parts = [e.intervals_rtt() for e in self.experiments if e.valid]
        if not parts:
            return np.empty(0)
        return np.concatenate(parts)

    def paths_measured(self) -> set[tuple[str, str]]:
        """Distinct (src, dst) hostname pairs with validated data."""
        return {
            (e.path.src.hostname, e.path.dst.hostname)
            for e in self.experiments
            if e.valid
        }

    def mean_loss_rate(self) -> float:
        """Mean per-packet loss rate over validated experiments."""
        rates = [
            0.5 * (e.small.loss_rate + e.large.loss_rate)
            for e in self.experiments
            if e.valid
        ]
        return float(np.mean(rates)) if rates else float("nan")

    def fingerprint(self) -> str:
        """SHA-256 over the measurement content (experiments + failures).

        Provenance ``meta`` is excluded on purpose: a resumed run carries
        different bookkeeping but must fingerprint identically to an
        uninterrupted run with the same seed.
        """
        payload = {
            "experiments": [_experiment_to_record(e, i)
                            for i, e in enumerate(self.experiments)],
            "failures": [
                {"index": f.index, "error": f.error, "attempts": f.attempts}
                for f in self.failures
            ],
        }
        return canonical_fingerprint(payload)


# ----------------------------------------------------------------------
# Experiment <-> checkpoint-record serialization.  Records are plain JSON
# (floats round-trip exactly via repr), so a resumed campaign rebuilds
# experiments bit-identical to the run that wrote them.

def _probe_run_to_record(run: ProbeRun) -> dict:
    return {
        "packet_size": int(run.packet_size),
        "n_sent": int(run.n_sent),
        "rtt": float(run.rtt),
        "loss_times": np.asarray(run.loss_times, dtype=np.float64).tolist(),
    }


def _experiment_to_record(e: Experiment, index: int) -> dict:
    return {
        "index": int(index),
        "src": e.path.src.hostname,
        "dst": e.path.dst.hostname,
        "started_at": float(e.started_at),
        "valid": bool(e.valid),
        "runs": [_probe_run_to_record(e.small), _probe_run_to_record(e.large)],
    }


def _experiment_from_record(record: dict, matrix: RttMatrix) -> Experiment:
    path = matrix.path(record["src"], record["dst"])
    runs = [
        ProbeRun(
            path=path,
            packet_size=int(r["packet_size"]),
            n_sent=int(r["n_sent"]),
            loss_times=np.asarray(r["loss_times"], dtype=np.float64),
            rtt=float(r["rtt"]),
        )
        for r in record["runs"]
    ]
    return Experiment(
        path=path, small=runs[0], large=runs[1],
        valid=bool(record["valid"]), started_at=float(record["started_at"]),
    )


def _experiment_worker(job: tuple, attempt: int = 1) -> dict:
    """One campaign experiment as a self-contained, picklable job.

    Every random draw re-derives from the campaign seed and the job's own
    names (``loss/<src>/<dst>``, ``exp/<index>``), so the worker produces
    the exact record a serial run would — regardless of process
    scheduling, retries, or resumption.
    """
    seed, cfg, path, index, started_at, plan = job
    injected_before = dict(plan.injected) if plan is not None else {}
    small, large, valid = run_experiment_fast(
        seed, cfg, path, index, started_at, fault_plan=plan, attempt=attempt,
    )
    exp = Experiment(
        path=path, small=small, large=large, valid=valid, started_at=started_at,
    )
    record = _experiment_to_record(exp, index)
    if plan is not None:
        record["injected"] = injected_since(plan, injected_before)
    return record


class Campaign:
    """Random-pair CBR measurement campaign over the 26-site mesh."""

    def __init__(
        self,
        seed: int = 2006,
        probe_config: Optional[ProbeConfig] = None,
        rtt_matrix: Optional[RttMatrix] = None,
        fault_plan: Optional[FaultPlan] = None,
    ):
        self.streams = RngStreams(seed)
        self.matrix = rtt_matrix if rtt_matrix is not None else RttMatrix(self.streams)
        self.probe_config = probe_config or ProbeConfig()
        self.fault_plan = fault_plan

    @property
    def seed(self) -> int:
        """The campaign seed (every stream derives from it)."""
        return self.streams.seed

    def pick_path(self, rng: np.random.Generator) -> PathRtt:
        """Two distinct random sites -> the directed path between them."""
        i, j = rng.choice(len(SITES), size=2, replace=False)
        return self.matrix.path(SITES[i], SITES[j])

    #: Campaign span: October-December 2006 is ~92 days.
    CAMPAIGN_SPAN_SECONDS = CAMPAIGN_SPAN_SECONDS

    def run(
        self,
        n_experiments: int,
        workers: Optional[int] = None,
        on_error: str = "raise",
        checkpoint: Optional[Union[str, Path]] = None,
        tracer=None,
    ) -> CampaignResult:
        """Run ``n_experiments`` random-pair measurements, spread uniformly
        over the campaign's three-month clock.

        ``workers`` fans experiments over a process pool (``None``: the
        ``REPRO_WORKERS`` environment variable, then serial) with results
        bit-identical to serial execution.  ``on_error`` is the resilience
        policy (:func:`repro.experiments.parallel.parallel_map`): with
        ``"skip"`` or ``"retry"``, permanently failed experiments land in
        ``result.failures`` instead of aborting the campaign.
        ``checkpoint`` names a JSON-lines file: completed experiments are
        durably logged as they finish, and a rerun pointing at the same
        file skips them, resuming exactly where the interrupted run
        stopped.

        ``tracer`` (a :class:`repro.obs.SpanTracer`, parent-side) records
        one span per experiment at the fan-in point and a ``fault.<kind>``
        event for every injection the workers realized — injections travel
        back in the result records (worker processes cannot reach the
        tracer), and injected probe crashes are inferred from the armed
        plan plus each item's attempt count.
        """
        if n_experiments <= 0:
            raise ValueError(f"need a positive experiment count, got {n_experiments}")
        picker = self.streams.stream("pair-picker")
        when = self.streams.stream("schedule")
        starts = np.sort(
            when.uniform(0.0, self.CAMPAIGN_SPAN_SECONDS, n_experiments)
        )
        jobs = [
            (
                self.seed, self.probe_config, self.pick_path(picker), i,
                float(starts[i]), self.fault_plan,
            )
            for i in range(n_experiments)
        ]

        records: dict[int, dict] = {}
        ckpt: Optional[Checkpoint] = None
        if checkpoint is not None:
            ckpt = Checkpoint(
                checkpoint,
                meta={
                    "kind": "campaign",
                    "seed": self.seed,
                    "n": n_experiments,
                    "duration": self.probe_config.duration,
                },
            )
            records = ckpt.load()
        resumed = len(records)
        todo = [jobs[i] for i in range(n_experiments) if i not in records]

        retried: dict[int, int] = {}

        def note(res: Result) -> None:
            if tracer is not None and self.fault_plan is not None:
                idx = int(todo[res.index][3])
                crash = self.fault_plan.crashes.get(idx)
                if crash is not None:
                    # Crashed attempts never return a record; reconstruct
                    # them from the armed plan and the attempt count (a
                    # surviving item burned attempts-1 crashes, a dead one
                    # all of its attempts, capped at what was armed).
                    n = min(crash.crashes, res.attempts - (1 if res.ok else 0))
                    if n > 0:
                        tracer.event("fault.probe_crash", count=n, index=idx)
            if not res.ok:
                return
            exp_index = int(res.value["index"])
            if tracer is not None:
                for kind, count in sorted(res.value.get("injected", {}).items()):
                    tracer.event(f"fault.{kind}", count=int(count), index=exp_index)
            if res.attempts > 1:
                retried[exp_index] = res.attempts
            records[exp_index] = res.value
            if ckpt is not None:
                ckpt.append(exp_index, res.value)

        try:
            out = parallel_map(
                _experiment_worker, todo, workers=workers,
                on_error=on_error, pass_attempt=True, on_result=note,
                tracer=tracer, span_name="campaign.experiment",
            )
        finally:
            if ckpt is not None:
                ckpt.close()

        failures = sorted(
            (ExperimentFailure(index=int(todo[res.index][3]),
                               error=res.error_text, attempts=res.attempts)
             for res in out if not res.ok),
            key=lambda f: f.index,
        )

        result = CampaignResult(failures=failures)
        injected: dict[str, int] = {}
        for i in range(n_experiments):
            rec = records.get(i)
            if rec is None:
                continue
            result.experiments.append(_experiment_from_record(rec, self.matrix))
            for kind, count in rec.get("injected", {}).items():
                injected[kind] = injected.get(kind, 0) + int(count)
        result.meta = {
            "seed": self.seed,
            "n_experiments": n_experiments,
            "on_error": on_error,
            "resumed": resumed,
            "retried": retried,
            "failed": [f.index for f in failures],
            "injected": injected,
            "fault_plan": (
                None if self.fault_plan is None else self.fault_plan.describe()
            ),
        }
        return result
